//! Regular 2D acquisition grids (sources / receivers) and the
//! ocean-bottom-acquisition geometry of the paper's numerical example.

/// A point in 3D space (meters).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point3 {
    /// Inline coordinate (m).
    pub x: f64,
    /// Crossline coordinate (m).
    pub y: f64,
    /// Depth, positive downward (m).
    pub z: f64,
}

impl Point3 {
    /// Construct a point.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Euclidean distance to another point.
    pub fn dist(&self, other: &Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Horizontal (x, y) distance, ignoring depth.
    pub fn hdist(&self, other: &Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Regular grid of stations at a fixed depth.
///
/// Index order is *inline-fastest* (row-major over `(iy, ix)`): station
/// `k` sits at `ix = k % nx`, `iy = k / nx` — the "natural" ordering whose
/// poor spatial locality the paper's Hilbert reordering fixes.
#[derive(Clone, Debug, PartialEq)]
pub struct StationGrid {
    /// Inline station count.
    pub nx: usize,
    /// Crossline station count.
    pub ny: usize,
    /// Inline spacing (m).
    pub dx: f64,
    /// Crossline spacing (m).
    pub dy: f64,
    /// Inline origin (m).
    pub x0: f64,
    /// Crossline origin (m).
    pub y0: f64,
    /// Depth of every station (m).
    pub depth: f64,
}

impl StationGrid {
    /// Total station count.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// `true` when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grid indices of station `k` in natural order.
    pub fn indices(&self, k: usize) -> (usize, usize) {
        debug_assert!(k < self.len());
        (k % self.nx, k / self.nx)
    }

    /// Spatial position of station `k` in natural order.
    pub fn position(&self, k: usize) -> Point3 {
        let (ix, iy) = self.indices(k);
        Point3::new(
            self.x0 + ix as f64 * self.dx,
            self.y0 + iy as f64 * self.dy,
            self.depth,
        )
    }

    /// All station positions in natural order.
    pub fn positions(&self) -> Vec<Point3> {
        (0..self.len()).map(|k| self.position(k)).collect()
    }
}

/// Full ocean-bottom acquisition geometry: a source grid near the surface
/// and a receiver grid along the seafloor.
///
/// [`Acquisition::scaled_with`] at scale 1 and 20 m spacing is the
/// paper's §6.1 setup — 217×120 sources at 10 m, 177×90 receivers at
/// 300 m; larger scales shrink it for laptop-scale runs while keeping
/// the aspect ratios.
#[derive(Clone, Debug)]
pub struct Acquisition {
    /// Source grid (10 m depth in the paper).
    pub sources: StationGrid,
    /// Receiver grid (300 m depth — the seafloor — in the paper).
    pub receivers: StationGrid,
}

impl Acquisition {
    /// Scaled-down geometry with an explicit station spacing.
    ///
    /// Keeping the spacing near the paper's 20 m (instead of stretching it
    /// with the scale) preserves the *sampling density* relative to the
    /// seismic wavelengths — which is what makes the frequency matrices
    /// tile-low-rank after Hilbert sorting. The aperture shrinks instead.
    pub fn scaled_with(scale: usize, spacing: f64) -> Self {
        let s = scale.max(1);
        Self {
            sources: StationGrid {
                nx: (217 / s).max(2),
                ny: (120 / s).max(2),
                dx: spacing,
                dy: spacing,
                x0: 0.0,
                y0: 0.0,
                depth: 10.0,
            },
            receivers: StationGrid {
                nx: (177 / s).max(2),
                ny: (90 / s).max(2),
                dx: spacing,
                dy: spacing,
                x0: 0.0,
                y0: 0.0,
                depth: 300.0,
            },
        }
    }

    /// Number of sources (frequency-matrix rows in the paper's layout).
    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of receivers (frequency-matrix columns).
    pub fn n_receivers(&self) -> usize {
        self.receivers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_counts() {
        let acq = Acquisition::scaled_with(1, 20.0);
        assert_eq!(acq.n_sources(), 26040);
        assert_eq!(acq.n_receivers(), 15930);
    }

    #[test]
    fn natural_order_is_inline_fastest() {
        let g = StationGrid {
            nx: 4,
            ny: 3,
            dx: 10.0,
            dy: 10.0,
            x0: 0.0,
            y0: 0.0,
            depth: 0.0,
        };
        assert_eq!(g.indices(0), (0, 0));
        assert_eq!(g.indices(1), (1, 0));
        assert_eq!(g.indices(4), (0, 1));
        let p = g.position(5);
        assert_eq!((p.x, p.y), (10.0, 10.0));
    }

    #[test]
    fn distances() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(3.0, 4.0, 12.0);
        assert!((a.dist(&b) - 13.0).abs() < 1e-12);
        assert!((a.hdist(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_preserves_extent_roughly() {
        let full = Acquisition::scaled_with(1, 20.0);
        let small = Acquisition::scaled_with(8, 160.0);
        let full_extent = full.sources.nx as f64 * full.sources.dx;
        let small_extent = small.sources.nx as f64 * small.sources.dx;
        assert!((full_extent - small_extent).abs() / full_extent < 0.05);
        assert!(small.n_sources() < 500);
    }
}
