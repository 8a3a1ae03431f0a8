//! A library crate with one helper file behind `#[cfg(test)]` and the
//! same helper declared as a plain module.

#[cfg(test)]
mod gated;
mod plain;
