//! Contiguous zone tables for driving the sharded engine from tests.
//!
//! `k` size-balanced zones over node ids `0..n` are laid on the
//! materialized scenario's controller config, so the spec keeps its own
//! pool labels, and the chaos lowering that reads them sees them as
//! written.

use slaq::core::spec::{ScenarioSpec, ShardingSpec};
use slaq::core::Scenario;
use slaq::types::ZoneId;

/// `k` contiguous, size-balanced zones over node ids `0..n`: node `i` is
/// in zone `s` for `s·n/k ≤ i < (s+1)·n/k`.
pub fn contiguous(n: usize, k: usize) -> Vec<ZoneId> {
    (0..k)
        .flat_map(|s| {
            let width = (s + 1) * n / k - s * n / k;
            std::iter::repeat_n(ZoneId::new(s as u32), width)
        })
        .collect()
}

/// Materialize `spec` on the global solve (`zones = None`) or on `k`
/// contiguous zones over its nodes (`Some(k)`), whatever its own
/// sharding knob says.
pub fn materialize(spec: &ScenarioSpec, zones: Option<usize>) -> Scenario {
    let mut spec = spec.clone();
    spec.controller.shards = ShardingSpec::Global;
    let mut scenario = spec
        .materialize()
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    if let Some(k) = zones {
        scenario.controller.sharding = contiguous(spec.cluster.node_count() as usize, k);
    }
    scenario
}
