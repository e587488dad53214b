//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! Hand-rolled token parsing (no `syn`/`quote` in the offline registry):
//! supports non-generic named structs, tuple structs and enums with unit /
//! newtype / tuple / struct variants, plus `#[serde(transparent)]` and
//! `#[serde(default)]` / `#[serde(default = "path")]` on named fields
//! (struct or struct-variant) and `#[serde(default)]` on a named struct.
//! That is the entire shape inventory of the slaq workspace.
//!
//! `default` follows real serde — it fills in keys that are *missing*
//! from the object, a container-level default taking them from the
//! struct's `Default::default()` — with one leniency documented on
//! `serde::field_or`: an explicit `null` the field's type cannot hold
//! also counts as missing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The `#[serde(...)]` options found on an item, variant or field.
/// `default` is the expression a missing key falls back to:
/// `Default::default()`, or `path()` for `default = "path"`.
#[derive(Default)]
struct Attrs {
    transparent: bool,
    default: Option<String>,
}

struct Field {
    name: String,
    default: Option<String>,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
        attrs: Attrs,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.to_string() == s)
}

/// Fold one `serde(...)` argument list (`transparent`, `default`,
/// `default = "path"`, comma-separated) into `attrs`.
fn parse_serde_args(args: TokenStream, attrs: &mut Attrs) {
    let tokens: Vec<TokenTree> = args.into_iter().collect();
    let mut i = 0;
    while i < tokens.len() {
        if is_ident(&tokens[i], "transparent") {
            attrs.transparent = true;
        } else if is_ident(&tokens[i], "default") {
            attrs.default = Some("::std::default::Default::default()".to_string());
            if i + 2 < tokens.len() && is_punct(&tokens[i + 1], '=') {
                let path = tokens[i + 2].to_string();
                attrs.default = Some(format!("{}()", path.trim_matches('"')));
                i += 2;
            }
        } else if !is_punct(&tokens[i], ',') {
            panic!("serde stand-in derive: unsupported option {}", tokens[i]);
        }
        i += 1;
    }
}

/// Skip attributes and visibility, collecting the `#[serde(...)]`
/// options among the attributes.
fn skip_meta(tokens: &[TokenTree], i: &mut usize) -> Attrs {
    let mut attrs = Attrs::default();
    loop {
        if *i + 1 < tokens.len() && is_punct(&tokens[*i], '#') {
            if let TokenTree::Group(g) = &tokens[*i + 1] {
                if g.delimiter() == Delimiter::Bracket {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    if let [name, TokenTree::Group(args)] = inner.as_slice() {
                        if is_ident(name, "serde") {
                            parse_serde_args(args.stream(), &mut attrs);
                        }
                    }
                    *i += 2;
                    continue;
                }
            }
        }
        if *i < tokens.len() && is_ident(&tokens[*i], "pub") {
            *i += 1;
            if *i < tokens.len() {
                if let TokenTree::Group(g) = &tokens[*i] {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1;
                    }
                }
            }
            continue;
        }
        return attrs;
    }
}

/// Advance past a type, stopping after the top-level `,` (or at end).
/// Tracks `<...>` nesting, which token streams expose as plain puncts.
fn skip_type_to_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_meta(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!("expected field name, got {:?}", tokens[i]);
        };
        fields.push(Field {
            name: name.to_string(),
            default: attrs.default,
        });
        i += 1; // name
        assert!(is_punct(&tokens[i], ':'), "expected ':' after field name");
        i += 1; // colon
        skip_type_to_comma(&tokens, &mut i);
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle = 0i32;
    for (k, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            // A trailing comma does not open a new field.
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 && k + 1 < tokens.len() => {
                count += 1
            }
            _ => {}
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_meta(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!("expected variant name, got {:?}", tokens[i]);
        };
        let name = name.to_string();
        i += 1;
        let shape = if i < tokens.len() {
            match &tokens[i] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                    let n = count_tuple_fields(g.stream());
                    i += 1;
                    Shape::Tuple(n)
                }
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                    let fields = parse_named_fields(g.stream());
                    i += 1;
                    Shape::Named(fields)
                }
                _ => Shape::Unit,
            }
        } else {
            Shape::Unit
        };
        if i < tokens.len() && is_punct(&tokens[i], ',') {
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = skip_meta(&tokens, &mut i);
    let is_enum = if is_ident(&tokens[i], "struct") {
        false
    } else if is_ident(&tokens[i], "enum") {
        true
    } else {
        panic!(
            "derive target must be a struct or enum, got {:?}",
            tokens[i]
        );
    };
    i += 1;
    let TokenTree::Ident(name) = &tokens[i] else {
        panic!("expected type name");
    };
    let name = name.to_string();
    i += 1;
    if i < tokens.len() && is_punct(&tokens[i], '<') {
        panic!("serde stand-in derive does not support generic types ({name})");
    }
    if is_enum {
        let TokenTree::Group(g) = &tokens[i] else {
            panic!("expected enum body");
        };
        Item::Enum {
            name,
            variants: parse_variants(g.stream()),
        }
    } else {
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        Item::Struct { name, shape, attrs }
    }
}

fn gen_serialize(item: &Item) -> String {
    let mut out = String::new();
    match item {
        Item::Struct { name, shape, attrs } => {
            let body = match shape {
                Shape::Named(fields) => {
                    if attrs.transparent && fields.len() == 1 {
                        format!("::serde::Serialize::to_value(&self.{})", fields[0].name)
                    } else {
                        let mut entries = String::new();
                        for f in fields.iter().map(|f| &f.name) {
                            entries.push_str(&format!(
                                "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f})),"
                            ));
                        }
                        format!("::serde::Value::Obj(vec![{entries}])")
                    }
                }
                Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Shape::Tuple(n) => {
                    let mut entries = String::new();
                    for k in 0..*n {
                        entries.push_str(&format!("::serde::Serialize::to_value(&self.{k}),"));
                    }
                    format!("::serde::Value::Arr(vec![{entries}])")
                }
                Shape::Unit => "::serde::Value::Null".to_string(),
            };
            out.push_str(&format!(
                "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
            ));
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                    )),
                    Shape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(f0) => ::serde::Value::Obj(vec![(::std::string::String::from(\"{vn}\"), ::serde::Serialize::to_value(f0))]),"
                    )),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Obj(vec![(::std::string::String::from(\"{vn}\"), ::serde::Value::Arr(vec![{}]))]),",
                            binds.join(","),
                            items.join(",")
                        ));
                    }
                    Shape::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let binds = names.join(",");
                        let items: Vec<String> = names
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}{{{binds}}} => ::serde::Value::Obj(vec![(::std::string::String::from(\"{vn}\"), ::serde::Value::Obj(vec![{}]))]),",
                            items.join(",")
                        ));
                    }
                }
            }
            out.push_str(&format!(
                "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ match self {{ {arms} }} }} }}"
            ));
        }
    }
    out
}

/// The initializer list `f: <raise key f of obj>, ...` for named fields.
/// A field with a fallback (its own, or `container_default`'s
/// `__d.<field>`) takes it when the key is missing; the rest go through
/// `obj_get`, where a missing key reads as `null`.
fn named_inits(fields: &[Field], obj: &str, container_default: bool) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            let own = f.default.clone();
            match own.or_else(|| container_default.then(|| format!("__d.{n}"))) {
                Some(fb) => format!("{n}: ::serde::field_or({obj}, \"{n}\", || {fb})?"),
                None => format!(
                    "{n}: ::serde::Deserialize::from_value(::serde::obj_get({obj}, \"{n}\")?)?"
                ),
            }
        })
        .collect();
    inits.join(",")
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, shape, attrs } => {
            let body = match shape {
                Shape::Named(fields) => {
                    if attrs.transparent && fields.len() == 1 {
                        format!(
                            "Ok({name} {{ {}: ::serde::Deserialize::from_value(v)? }})",
                            fields[0].name
                        )
                    } else if attrs.default.is_some() {
                        format!(
                            "{{ let __d: {name} = ::std::default::Default::default(); Ok({name} {{ {} }}) }}",
                            named_inits(fields, "v", true)
                        )
                    } else {
                        format!("Ok({name} {{ {} }})", named_inits(fields, "v", false))
                    }
                }
                Shape::Tuple(1) => format!("Ok({name}(::serde::Deserialize::from_value(v)?))"),
                Shape::Tuple(n) => {
                    let inits: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                        .collect();
                    format!(
                        "match v {{ ::serde::Value::Arr(items) if items.len() == {n} => Ok({name}({})), other => Err(::serde::DeError::msg(format!(\"expected {n}-element array for {name}, got {{other:?}}\"))) }}",
                        inits.join(",")
                    )
                }
                Shape::Unit => format!("{{ let _ = v; Ok({name}) }}"),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{ fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }} }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut keyed_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),")),
                    Shape::Tuple(1) => keyed_arms.push_str(&format!(
                        "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                    )),
                    Shape::Tuple(n) => {
                        let inits: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                            .collect();
                        keyed_arms.push_str(&format!(
                            "\"{vn}\" => match inner {{ ::serde::Value::Arr(items) if items.len() == {n} => Ok({name}::{vn}({})), other => Err(::serde::DeError::msg(format!(\"bad payload for {name}::{vn}: {{other:?}}\"))) }},",
                            inits.join(",")
                        ));
                    }
                    Shape::Named(fields) => keyed_arms.push_str(&format!(
                        "\"{vn}\" => Ok({name}::{vn} {{ {} }}),",
                        named_inits(fields, "inner", false)
                    )),
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{ fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ match v {{ \
                 ::serde::Value::Str(s) => match s.as_str() {{ {unit_arms} other => Err(::serde::DeError::msg(format!(\"unknown variant {{other}} for {name}\"))) }}, \
                 ::serde::Value::Obj(pairs) if pairs.len() == 1 => {{ let (key, inner) = &pairs[0]; match key.as_str() {{ {keyed_arms} other => Err(::serde::DeError::msg(format!(\"unknown variant {{other}} for {name}\"))) }} }}, \
                 other => Err(::serde::DeError::msg(format!(\"expected variant encoding for {name}, got {{other:?}}\"))) }} }} }}"
            )
        }
    }
}

/// Derive `Serialize` (value-tree lowering).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derive `Deserialize` (value-tree raising).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl must parse")
}
