//! Graph operations: the GraphCT "utility function" layer.

pub mod dag;
pub mod degree_order;

pub use dag::{IntersectStrategy, RankDag};
pub use degree_order::degree_ascending_permutation;
