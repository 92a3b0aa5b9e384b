//@ path: crates/core/src/check.rs
//@ expect: S102 5
//@ expect: S102 6
pub trait CheckSink {
    fn write_issued(&mut self, n: u16);
    fn fill(&mut self, n: u16);
}
