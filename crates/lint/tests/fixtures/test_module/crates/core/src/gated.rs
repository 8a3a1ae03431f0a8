//! An unwrapping helper: harness code, since only test builds compile it.

pub(crate) fn first(values: &[u32]) -> u32 {
    values.first().copied().unwrap()
}
