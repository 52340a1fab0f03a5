pub mod catalog;
pub mod metrics;
pub mod span;
pub mod stats;
