//! An unwrapping helper: library code, since every build compiles it.

pub(crate) fn first(values: &[u32]) -> u32 {
    values.first().copied().unwrap()
}
