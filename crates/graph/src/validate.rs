//! Result validators.
//!
//! Graph500 requires every reported BFS tree to be validated; we apply the
//! same discipline to every kernel result so that the BSP and
//! shared-memory implementations can be cross-checked mechanically.

use crate::{Csr, VertexId, NO_VERTEX};

/// Errors produced by the validators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// An array had the wrong length.
    WrongLength {
        /// Expected length (number of vertices).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A vertex failed a check; the string explains which.
    Vertex(VertexId, String),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WrongLength { expected, actual } => {
                write!(f, "expected {expected} entries, got {actual}")
            }
            ValidationError::Vertex(v, msg) => write!(f, "vertex {v}: {msg}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate a BFS result (`dist`, `parent`) from `source`, Graph500-style.
///
/// Checks: source has distance 0 and is its own parent; unreachable
/// vertices have `dist == u64::MAX` and `parent == NO_VERTEX`; every
/// reached vertex has a parent that is a real neighbor with
/// `dist[v] == dist[parent] + 1`; every edge spans at most one level.
pub fn validate_bfs(
    g: &Csr,
    source: VertexId,
    dist: &[u64],
    parent: &[VertexId],
) -> Result<(), ValidationError> {
    let n = g.num_vertices() as usize;
    if dist.len() != n {
        return Err(ValidationError::WrongLength {
            expected: n,
            actual: dist.len(),
        });
    }
    if parent.len() != n {
        return Err(ValidationError::WrongLength {
            expected: n,
            actual: parent.len(),
        });
    }
    let s = source as usize;
    if dist[s] != 0 {
        return Err(ValidationError::Vertex(
            source,
            "source distance != 0".into(),
        ));
    }
    if parent[s] != source {
        return Err(ValidationError::Vertex(
            source,
            "source is not its own parent".into(),
        ));
    }
    for v in 0..n {
        let dv = dist[v];
        let pv = parent[v];
        if dv == u64::MAX {
            if pv != NO_VERTEX {
                return Err(ValidationError::Vertex(
                    v as u64,
                    "unreachable vertex has a parent".into(),
                ));
            }
            continue;
        }
        if v != s {
            if pv == NO_VERTEX || pv as usize >= n {
                return Err(ValidationError::Vertex(
                    v as u64,
                    "missing/invalid parent".into(),
                ));
            }
            if dist[pv as usize] + 1 != dv {
                return Err(ValidationError::Vertex(
                    v as u64,
                    format!(
                        "parent at distance {} but child at {}",
                        dist[pv as usize], dv
                    ),
                ));
            }
            if !g.has_arc(pv, v as u64) {
                return Err(ValidationError::Vertex(
                    v as u64,
                    "parent is not a neighbor".into(),
                ));
            }
        }
        // Edge-level condition: neighbors differ by at most one level, and
        // no reached vertex has an unreached neighbor.
        for &u in g.neighbors(v as u64) {
            let du = dist[u as usize];
            if du == u64::MAX {
                return Err(ValidationError::Vertex(
                    u,
                    "unreached vertex adjacent to reached vertex".into(),
                ));
            } else if du + 1 < dv || dv + 1 < du {
                return Err(ValidationError::Vertex(
                    v as u64,
                    format!("edge spans levels {dv} and {du}"),
                ));
            }
        }
    }
    Ok(())
}

/// Validate a component labeling of an undirected graph.
///
/// Checks: labels are a fixed point (no edge joins two labels), each label
/// is the minimum vertex id in its component (the Shiloach-Vishkin
/// convention used by both implementations), and label values are
/// members of their own component (`label[label[v]] == label[v]`).
pub fn validate_components(g: &Csr, label: &[VertexId]) -> Result<(), ValidationError> {
    let n = g.num_vertices() as usize;
    if label.len() != n {
        return Err(ValidationError::WrongLength {
            expected: n,
            actual: label.len(),
        });
    }
    for v in 0..n {
        let lv = label[v];
        if lv as usize >= n {
            return Err(ValidationError::Vertex(
                v as u64,
                "label out of range".into(),
            ));
        }
        if lv > v as u64 {
            return Err(ValidationError::Vertex(
                v as u64,
                "label exceeds vertex id (labels must be component minima)".into(),
            ));
        }
        if label[lv as usize] != lv {
            return Err(ValidationError::Vertex(
                v as u64,
                "label is not its own representative".into(),
            ));
        }
        for &u in g.neighbors(v as u64) {
            if label[u as usize] != lv {
                return Err(ValidationError::Vertex(
                    v as u64,
                    format!("edge to {u} joins labels {lv} and {}", label[u as usize]),
                ));
            }
        }
    }
    Ok(())
}

/// Sizes of each component given a labeling: `(label, size)` pairs.
pub fn component_sizes(labels: &[VertexId]) -> Vec<(VertexId, u64)> {
    let mut sizes = std::collections::HashMap::new();
    for &l in labels {
        *sizes.entry(l).or_insert(0u64) += 1;
    }
    let mut out: Vec<(VertexId, u64)> = sizes.into_iter().collect();
    out.sort_by_key(|&(l, s)| (std::cmp::Reverse(s), l));
    out
}

/// The label of the largest component (ties to the smallest label);
/// `None` for the empty graph.
pub fn largest_component(labels: &[VertexId]) -> Option<VertexId> {
    component_sizes(labels).first().map(|&(l, _)| l)
}

/// Serial reference connected components (BFS flood fill) for testing.
pub fn reference_components(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices() as usize;
    let mut label = vec![NO_VERTEX; n];
    let mut queue = Vec::new();
    for s in 0..n {
        if label[s] != NO_VERTEX {
            continue;
        }
        label[s] = s as u64;
        queue.push(s as u64);
        while let Some(v) = queue.pop() {
            for &u in g.neighbors(v) {
                if label[u as usize] == NO_VERTEX {
                    label[u as usize] = s as u64;
                    queue.push(u);
                }
            }
        }
    }
    label
}

/// Serial reference BFS for testing: returns `(dist, parent)`.
pub fn reference_bfs(g: &Csr, source: VertexId) -> (Vec<u64>, Vec<VertexId>) {
    let n = g.num_vertices() as usize;
    let mut dist = vec![u64::MAX; n];
    let mut parent = vec![NO_VERTEX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    parent[source as usize] = source;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if dist[u as usize] == u64::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                parent[u as usize] = v;
                queue.push_back(u);
            }
        }
    }
    (dist, parent)
}

/// Serial reference triangle count for testing (counts each triangle once).
pub fn reference_triangles(g: &Csr) -> u64 {
    let mut count = 0u64;
    for v in 0..g.num_vertices() {
        for &u in g.neighbors(v) {
            if u <= v {
                continue;
            }
            for &w in g.neighbors(u) {
                if w <= u {
                    continue;
                }
                if g.has_arc(v, w) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_undirected;
    use crate::gen::structured::{
        bridged_cliques, clique, clique_triangles, disjoint_cliques, path, ring, star,
    };

    #[test]
    fn reference_bfs_validates() {
        let g = build_undirected(&ring(10));
        let (d, p) = reference_bfs(&g, 0);
        validate_bfs(&g, 0, &d, &p).unwrap();
        assert_eq!(d[5], 5);
    }

    #[test]
    fn bfs_validator_catches_corruption() {
        let g = build_undirected(&path(5));
        let (mut d, p) = reference_bfs(&g, 0);
        d[3] = 7;
        assert!(validate_bfs(&g, 0, &d, &p).is_err());
    }

    #[test]
    fn bfs_validator_catches_fake_parent() {
        let g = build_undirected(&star(5));
        let (d, mut p) = reference_bfs(&g, 0);
        p[2] = 3; // leaf claims another leaf as parent
        assert!(validate_bfs(&g, 0, &d, &p).is_err());
    }

    #[test]
    fn bfs_validator_rejects_wrong_lengths() {
        let g = build_undirected(&path(4));
        let (d, p) = reference_bfs(&g, 0);
        assert!(validate_bfs(&g, 0, &d[..3], &p).is_err());
        assert!(validate_bfs(&g, 0, &d, &p[..2]).is_err());
    }

    #[test]
    fn unreachable_vertices_must_be_marked() {
        let g = build_undirected(&disjoint_cliques(2, 3));
        let (d, p) = reference_bfs(&g, 0);
        validate_bfs(&g, 0, &d, &p).unwrap();
        assert_eq!(d[4], u64::MAX);
        assert_eq!(p[4], NO_VERTEX);
    }

    #[test]
    fn reference_components_validate() {
        let g = build_undirected(&disjoint_cliques(3, 4));
        let labels = reference_components(&g);
        validate_components(&g, &labels).unwrap();
        assert_eq!(labels[0], 0);
        assert_eq!(labels[5], 4);
        assert_eq!(labels[9], 8);
    }

    #[test]
    fn component_validator_catches_split_components() {
        let g = build_undirected(&bridged_cliques(3));
        let mut labels = reference_components(&g);
        labels[4] = 4; // pretend second clique is separate
        assert!(validate_components(&g, &labels).is_err());
    }

    #[test]
    fn component_validator_requires_minimum_labels() {
        let g = build_undirected(&clique(3));
        // Valid partition but labels aren't the minima.
        let labels = vec![1, 1, 1];
        assert!(validate_components(&g, &labels).is_err());
    }

    #[test]
    fn component_size_utilities() {
        let labels = vec![0, 0, 2, 0, 2, 5];
        let sizes = component_sizes(&labels);
        assert_eq!(sizes, vec![(0, 3), (2, 2), (5, 1)]);
        assert_eq!(largest_component(&labels), Some(0));
        assert_eq!(largest_component(&[]), None);
    }

    #[test]
    fn reference_triangle_counts() {
        for n in [3u64, 4, 5, 7] {
            let g = build_undirected(&clique(n));
            assert_eq!(reference_triangles(&g), clique_triangles(n));
        }
        let g = build_undirected(&ring(8));
        assert_eq!(reference_triangles(&g), 0);
        let g = build_undirected(&disjoint_cliques(4, 5));
        assert_eq!(reference_triangles(&g), 4 * clique_triangles(5));
    }
}
