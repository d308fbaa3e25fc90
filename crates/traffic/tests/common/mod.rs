//! Helpers shared by this crate's integration tests.

pub mod oracle;
