//@ path: crates/workloads/src/builder.rs
// The lane-sharded trace-generation driver is an approved concurrency
// module: primitives are allowed here. Elsewhere, idents that merely *look* thread-adjacent
// (a local named `scope`, a method named `spawn` on another type) are
// not flagged, and test code may use whatever it likes.
use std::sync::Mutex;
use std::sync::atomic::AtomicU32;

pub struct Gate {
    pub epoch: AtomicU32,
    pub io: Mutex<u32>,
}

pub fn workers() {
    std::thread::scope(|_s| {});
}
