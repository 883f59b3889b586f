//! 3D-torus topology: coordinates, dimensions, rings, and XYZ routing.

use std::fmt;

use crate::link::Port;

/// Identifies one NPU in the fabric.
///
/// Node ids are dense indices in `[0, shape.nodes())`, laid out
/// local-major: `id = l + L*(v + V*h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "npu{}", self.0)
    }
}

/// The three torus dimensions in the paper's `LxVxH` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Intra-package (local) ring — the highest-bandwidth dimension.
    Local,
    /// Inter-package vertical ring.
    Vertical,
    /// Inter-package horizontal ring.
    Horizontal,
}

impl Dim {
    /// All dimensions in XYZ routing order (local, vertical, horizontal).
    pub const ALL: [Dim; 3] = [Dim::Local, Dim::Vertical, Dim::Horizontal];
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dim::Local => "local",
            Dim::Vertical => "vertical",
            Dim::Horizontal => "horizontal",
        };
        f.write_str(s)
    }
}

/// A coordinate in the torus: `(l, v, h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Position on the intra-package ring.
    pub l: usize,
    /// Position on the vertical ring.
    pub v: usize,
    /// Position on the horizontal ring.
    pub h: usize,
}

impl Coord {
    /// Component along `dim`.
    pub fn along(&self, dim: Dim) -> usize {
        match dim {
            Dim::Local => self.l,
            Dim::Vertical => self.v,
            Dim::Horizontal => self.h,
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.l, self.v, self.h)
    }
}

/// One hop of a route: leave `from` on egress `port`, arriving at `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Node the hop leaves from.
    pub from: NodeId,
    /// Egress port used.
    pub port: Port,
    /// Node the hop arrives at.
    pub to: NodeId,
}

/// A source-to-destination path: the sequence of hops chosen by XYZ routing.
pub type Route = Vec<Hop>;

/// The `LxVxH` torus describing the whole platform (Section V).
///
/// The paper's evaluated sizes are `4x2x2` (16 NPUs), `4x4x2` (32),
/// `4x4x4` (64) and `4x8x4` (128).
///
/// ```
/// use ace_net::TorusShape;
/// let shape = TorusShape::new(4, 8, 4).unwrap();
/// assert_eq!(shape.nodes(), 128);
/// assert_eq!(shape.to_string(), "4x8x4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusShape {
    l: usize,
    v: usize,
    h: usize,
}

impl TorusShape {
    /// Creates a torus shape; every dimension must be at least 1 and the
    /// total size at least 2.
    pub fn new(l: usize, v: usize, h: usize) -> Result<Self, ShapeError> {
        if l == 0 || v == 0 || h == 0 {
            return Err(ShapeError::ZeroDimension);
        }
        if l * v * h < 2 {
            return Err(ShapeError::TooSmall("torus"));
        }
        Ok(TorusShape { l, v, h })
    }

    /// The paper's four evaluated system sizes, smallest to largest.
    pub fn paper_sizes() -> Vec<TorusShape> {
        vec![
            TorusShape::new(4, 2, 2).expect("valid"),
            TorusShape::new(4, 4, 2).expect("valid"),
            TorusShape::new(4, 4, 4).expect("valid"),
            TorusShape::new(4, 8, 4).expect("valid"),
        ]
    }

    /// Intra-package (local) dimension size.
    pub fn local(&self) -> usize {
        self.l
    }

    /// Vertical dimension size.
    pub fn vertical(&self) -> usize {
        self.v
    }

    /// Horizontal dimension size.
    pub fn horizontal(&self) -> usize {
        self.h
    }

    /// Size of dimension `dim`.
    pub fn len(&self, dim: Dim) -> usize {
        match dim {
            Dim::Local => self.l,
            Dim::Vertical => self.v,
            Dim::Horizontal => self.h,
        }
    }

    /// Total number of NPUs.
    pub fn nodes(&self) -> usize {
        self.l * self.v * self.h
    }

    /// Converts a node id to its coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.nodes(), "node {} out of range", node);
        let l = node.0 % self.l;
        let rest = node.0 / self.l;
        let v = rest % self.v;
        let h = rest / self.v;
        Coord { l, v, h }
    }

    /// Converts a coordinate to its node id.
    ///
    /// # Panics
    ///
    /// Panics if any component is out of range.
    pub fn node_at(&self, c: Coord) -> NodeId {
        assert!(
            c.l < self.l && c.v < self.v && c.h < self.h,
            "coord out of range"
        );
        NodeId(c.l + self.l * (c.v + self.v * c.h))
    }

    /// The neighbor of `node` one step in the positive (`plus = true`) or
    /// negative direction along `dim`, wrapping around the ring.
    pub fn neighbor(&self, node: NodeId, dim: Dim, plus: bool) -> NodeId {
        let mut c = self.coord(node);
        let n = self.len(dim);
        let cur = c.along(dim);
        let next = if plus {
            (cur + 1) % n
        } else {
            (cur + n - 1) % n
        };
        match dim {
            Dim::Local => c.l = next,
            Dim::Vertical => c.v = next,
            Dim::Horizontal => c.h = next,
        }
        self.node_at(c)
    }

    /// The members of the ring through `node` along `dim`, starting at
    /// `node` and following the positive direction.
    ///
    /// Ring collectives (reduce-scatter / all-gather / all-reduce) run over
    /// exactly these groups.
    pub fn ring_members(&self, node: NodeId, dim: Dim) -> Vec<NodeId> {
        let n = self.len(dim);
        let mut members = Vec::with_capacity(n);
        let mut cur = node;
        for _ in 0..n {
            members.push(cur);
            cur = self.neighbor(cur, dim, true);
        }
        members
    }

    /// XYZ (dimension-ordered: local, vertical, horizontal) route from
    /// `src` to `dst`, taking the shorter way around each ring (ties go to
    /// the positive direction). Returns an empty route when `src == dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        let mut hops = Vec::new();
        let mut cur = src;
        let dst_c = self.coord(dst);
        for dim in Dim::ALL {
            let n = self.len(dim);
            if n == 1 {
                continue;
            }
            loop {
                let cur_c = self.coord(cur);
                let a = cur_c.along(dim);
                let b = dst_c.along(dim);
                if a == b {
                    break;
                }
                let fwd = (b + n - a) % n;
                let plus = fwd <= n - fwd;
                let next = self.neighbor(cur, dim, plus);
                hops.push(Hop {
                    from: cur,
                    port: Port::new(dim, plus),
                    to: next,
                });
                cur = next;
            }
        }
        debug_assert_eq!(cur, dst);
        hops
    }

    /// Iterator over all node ids.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }

    /// Total number of unidirectional links in the fabric.
    ///
    /// Each node contributes one egress link per dimension-direction whose
    /// ring has more than one member (a ring of size 2 still has distinct
    /// plus and minus links, matching Table V's "2 intra-package links").
    pub fn total_links(&self) -> usize {
        let mut per_node = 0;
        for dim in Dim::ALL {
            if self.len(dim) > 1 {
                per_node += 2;
            }
        }
        per_node * self.nodes()
    }
}

impl fmt::Display for TorusShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.l, self.v, self.h)
    }
}

/// Errors constructing a [`TorusShape`] or a
/// [`TopologySpec`](crate::TopologySpec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// A dimension was zero.
    ZeroDimension,
    /// The named fabric (`torus`, `switch`, ...) has fewer than two
    /// nodes.
    TooSmall(&'static str),
    /// A torus needs between 1 and [`MAX_TORUS_DIMS`](crate::MAX_TORUS_DIMS)
    /// dimensions; this many were given.
    BadDimensionCount(usize),
    /// A dimension length exceeds the spec's storage width.
    DimensionTooLarge(usize),
    /// The topology's total node count overflows the address space.
    TooManyNodes,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroDimension => f.write_str("torus dimensions must be nonzero"),
            ShapeError::TooSmall(fabric) => write!(f, "{fabric} must contain at least two nodes"),
            ShapeError::BadDimensionCount(n) => {
                write!(f, "torus needs 1..=6 dimensions, got {n}")
            }
            ShapeError::DimensionTooLarge(n) => write!(f, "dimension {n} is too large"),
            ShapeError::TooManyNodes => f.write_str("topology node count overflows"),
        }
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_section_v() {
        let sizes: Vec<usize> = TorusShape::paper_sizes()
            .iter()
            .map(|s| s.nodes())
            .collect();
        assert_eq!(sizes, vec![16, 32, 64, 128]);
    }

    #[test]
    fn coord_roundtrip() {
        let s = TorusShape::new(4, 8, 4).unwrap();
        for id in s.iter_nodes() {
            assert_eq!(s.node_at(s.coord(id)), id);
        }
    }

    #[test]
    fn neighbor_wraps_around() {
        let s = TorusShape::new(4, 2, 2).unwrap();
        let n0 = NodeId(0);
        assert_eq!(s.neighbor(n0, Dim::Local, true), NodeId(1));
        assert_eq!(s.neighbor(n0, Dim::Local, false), NodeId(3));
        let last_local = NodeId(3);
        assert_eq!(s.neighbor(last_local, Dim::Local, true), NodeId(0));
    }

    #[test]
    fn neighbor_vertical_stride_is_l() {
        let s = TorusShape::new(4, 4, 4).unwrap();
        assert_eq!(s.neighbor(NodeId(0), Dim::Vertical, true), NodeId(4));
        assert_eq!(s.neighbor(NodeId(0), Dim::Horizontal, true), NodeId(16));
    }

    #[test]
    fn ring_members_cover_dimension() {
        let s = TorusShape::new(4, 8, 4).unwrap();
        let ring = s.ring_members(NodeId(0), Dim::Vertical);
        assert_eq!(ring.len(), 8);
        // All members share l and h coordinates.
        let c0 = s.coord(NodeId(0));
        for &m in &ring {
            let c = s.coord(m);
            assert_eq!((c.l, c.h), (c0.l, c0.h));
        }
        // Distinct members.
        let mut sorted: Vec<usize> = ring.iter().map(|n| n.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn route_is_empty_for_self() {
        let s = TorusShape::new(4, 2, 2).unwrap();
        assert!(s.route(NodeId(3), NodeId(3)).is_empty());
    }

    #[test]
    fn route_follows_xyz_order() {
        let s = TorusShape::new(4, 4, 4).unwrap();
        let src = s.node_at(Coord { l: 0, v: 0, h: 0 });
        let dst = s.node_at(Coord { l: 2, v: 1, h: 3 });
        let route = s.route(src, dst);
        // Hops must be grouped: all local, then vertical, then horizontal.
        let dims: Vec<Dim> = route.iter().map(|h| h.port.dim()).collect();
        let first_v = dims.iter().position(|d| *d == Dim::Vertical);
        let first_h = dims.iter().position(|d| *d == Dim::Horizontal);
        if let (Some(fv), Some(fh)) = (first_v, first_h) {
            assert!(fv < fh);
        }
        assert!(dims.iter().take_while(|d| **d == Dim::Local).count() >= 1);
        // Route ends at destination.
        assert_eq!(route.last().unwrap().to, dst);
        // Route is connected.
        for w in route.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
    }

    #[test]
    fn route_takes_shorter_way() {
        let s = TorusShape::new(8, 1, 1).unwrap();
        // 0 -> 6 is shorter going minus (2 hops) than plus (6 hops).
        let route = s.route(NodeId(0), NodeId(6));
        assert_eq!(route.len(), 2);
        assert!(!route[0].port.is_plus());
    }

    #[test]
    fn route_hop_count_is_sum_of_ring_distances() {
        let s = TorusShape::new(4, 8, 4).unwrap();
        let src = NodeId(0);
        let dst = s.node_at(Coord { l: 2, v: 4, h: 2 });
        // Distances: local 2, vertical 4, horizontal 2.
        assert_eq!(s.route(src, dst).len(), 8);
    }

    #[test]
    fn total_links_counts_directions() {
        let s = TorusShape::new(4, 2, 2).unwrap();
        // 6 egress links per node (all three dims have size > 1).
        assert_eq!(s.total_links(), 6 * 16);
        let flat = TorusShape::new(4, 1, 1).unwrap();
        assert_eq!(flat.total_links(), 2 * 4);
    }

    #[test]
    fn shape_errors() {
        assert_eq!(
            TorusShape::new(0, 2, 2).unwrap_err(),
            ShapeError::ZeroDimension
        );
        assert_eq!(
            TorusShape::new(1, 1, 1).unwrap_err(),
            ShapeError::TooSmall("torus")
        );
        assert_eq!(
            TorusShape::new(1, 1, 1).unwrap_err().to_string(),
            "torus must contain at least two nodes"
        );
    }
}
