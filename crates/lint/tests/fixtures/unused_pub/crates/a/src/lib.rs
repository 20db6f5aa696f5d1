//! Fixture crate for `--unused-pub`.

mod other;

pub use other::Reexported;

/// Called from `other.rs`: referenced.
pub fn used_elsewhere() {}

/// Called only below, in this file: listed.
pub fn only_here() {}

/// Called only from the crate's tests: referenced.
pub fn used_in_tests() {}

/// Named by the benchmark's load-bearing list: exempt.
pub fn bench_calls() {}

/// Not `pub`: never listed.
pub(crate) fn restricted() {
    only_here();
}

pub struct Holder {
    /// A field is not an item.
    pub field: u8,
}

impl Holder {
    /// A method no other file calls: listed.
    pub const fn lonely(&self) -> u8 {
        self.field
    }
}

#[cfg(test)]
mod tests {
    pub fn in_a_test_region() {}
}
