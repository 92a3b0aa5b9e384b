//@ path: crates/core/src/engine.rs
// An entry point that never calls a hook: both hooks are unreachable
// because neither has a call site at all.
pub fn run(sink: &mut dyn CheckSink) {
    let _ = sink;
}
