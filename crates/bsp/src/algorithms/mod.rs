//! The paper's BSP graph algorithms, plus PageRank.
//!
//! * [`components`] — Algorithm 1 (connected components);
//! * [`bfs`] — Algorithm 2 (breadth-first search);
//! * [`triangles`] — Algorithm 3 (triangle counting);
//! * [`pagerank`] — the Pregel staple the paper's related-work section
//!   measures on Giraph/Trinity, and a served kernel.

pub mod bfs;
pub mod components;
pub mod pagerank;
pub mod triangles;

pub use bfs::{bsp_bfs, bsp_bfs_with_config, BspBfsOutput};
pub use components::{bsp_connected_components, bsp_connected_components_with_config};
pub use pagerank::bsp_pagerank;
pub use triangles::{bsp_count_triangles, bsp_count_triangles_with_config};
