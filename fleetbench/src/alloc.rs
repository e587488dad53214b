//! Counting global allocator: allocation count, bytes, and the
//! high-water mark of live bytes, behind one flag. Off, it is a flag
//! load and a forward to `System`.
//!
//! The flag is per thread: only the thread that called [`start`] is
//! counted. The bench and — under the sequential `rayon` stand-in — the
//! whole program run on that one thread, and a process-wide flag would
//! also count whatever else the process does meanwhile (under `cargo
//! test`, the harness's own threads), so counts would not repeat. When
//! the program grows threads of its own, their allocations need the flag
//! set on them too. The counters are statistics and publish no other
//! data, so `Relaxed` is enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

thread_local! {
    // `const` and without a destructor: safe to read inside the
    // allocator, it never allocates or registers anything itself.
    static ON: Cell<bool> = const { Cell::new(false) };
}

fn on() -> bool {
    ON.try_with(Cell::get).unwrap_or(false)
}
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: memory obtained while counting was off may be freed while on.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout
// unchanged; the counters never touch the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if on() && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if on() && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if on() {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if on() && !p.is_null() {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Allocation count and bytes requested since [`start`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub count: u64,
    pub bytes: u64,
}

impl Counters {
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn counters() -> Counters {
    Counters {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Zero every counter and start counting this thread's allocations.
pub fn start() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.set(true);
}

/// Stop counting; the high-water mark of live bytes since [`start`].
pub fn stop() -> u64 {
    ON.set(false);
    PEAK.load(Relaxed).max(0) as u64
}

/// Scope guard: counting is off until the guard drops, then back to
/// what it was.
pub struct Pause {
    was_on: bool,
}

pub fn pause() -> Pause {
    Pause {
        was_on: ON.replace(false),
    }
}

impl Drop for Pause {
    fn drop(&mut self) {
        ON.set(self.was_on);
    }
}

/// The counters themselves are process-wide and `cargo test` runs tests
/// on parallel threads: every test holds this while it runs, so no two
/// count at once.
#[cfg(test)]
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}
