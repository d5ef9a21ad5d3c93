//! Layered velocity / reflectivity models with an Overthrust-like thrust
//! wedge.
//!
//! The paper's dataset is modeled on the SEG/EAGE Overthrust model with a
//! 300 m water column added (§6.1). We reproduce the *structure that the
//! algebra sees*: a water layer over a stack of sediment layers, one of
//! which is cut by a dipping thrust, so reflector depths vary laterally.

use seismic_geom::Point3;

/// One subsurface reflector: a locally planar interface whose depth varies
/// laterally, with a fixed reflection coefficient.
#[derive(Clone, Debug)]
pub struct Reflector {
    /// Reference depth at the model origin (m).
    pub depth0: f64,
    /// Depth gradient along x (dimensionless dip).
    pub dip_x: f64,
    /// Depth gradient along y.
    pub dip_y: f64,
    /// Thrust offset added where `x > thrust_x` (m); models the Overthrust
    /// fault block. Zero for flat layers.
    pub thrust_throw: f64,
    /// Inline position of the thrust fault (m).
    pub thrust_x: f64,
    /// Reflection coefficient (signed).
    pub coefficient: f64,
}

impl Reflector {
    /// Interface depth below a horizontal position.
    pub fn depth_at(&self, x: f64, y: f64) -> f64 {
        let mut z = self.depth0 + self.dip_x * x + self.dip_y * y;
        if x > self.thrust_x {
            z += self.thrust_throw;
        }
        z
    }
}

/// Water layer over a stack of reflectors, with interval velocities.
#[derive(Clone, Debug)]
pub struct VelocityModel {
    /// Water depth (m) — 300 m in the paper's modified Overthrust.
    pub water_depth: f64,
    /// Water velocity (m/s).
    pub water_velocity: f64,
    /// Effective sediment velocity used for straight-ray travel times
    /// below the seafloor (m/s).
    pub sediment_velocity: f64,
    /// Subsurface reflectors, shallow to deep, all below the seafloor.
    pub reflectors: Vec<Reflector>,
    /// Free-surface reflection coefficient (−1 for a perfect sea surface).
    pub free_surface_coefficient: f64,
}

impl VelocityModel {
    /// Overthrust-like preset: 300 m water column, three sediment
    /// reflectors — a gently dipping shallow one, a thrust-faulted middle
    /// one (the "overthrust"), and a deep flat one.
    pub fn overthrust() -> Self {
        Self {
            water_depth: 300.0,
            water_velocity: 1500.0,
            sediment_velocity: 2500.0,
            reflectors: vec![
                Reflector {
                    depth0: 700.0,
                    dip_x: 0.03,
                    dip_y: 0.01,
                    thrust_throw: 0.0,
                    thrust_x: f64::INFINITY,
                    coefficient: 0.22,
                },
                Reflector {
                    depth0: 1200.0,
                    dip_x: -0.05,
                    dip_y: 0.0,
                    thrust_throw: 180.0,
                    thrust_x: 2200.0,
                    coefficient: 0.30,
                },
                Reflector {
                    depth0: 1900.0,
                    dip_x: 0.0,
                    dip_y: 0.0,
                    thrust_throw: 0.0,
                    thrust_x: f64::INFINITY,
                    coefficient: 0.18,
                },
            ],
            free_surface_coefficient: -1.0,
        }
    }

    /// One-way vertical travel time from the free surface to the seafloor.
    pub fn water_travel_time(&self) -> f64 {
        self.water_depth / self.water_velocity
    }

    /// Two-way time to each reflector below a horizontal position, from
    /// seafloor datum (used for the Fig 13 "velocity model in time" panel).
    pub fn reflector_twt_at(&self, x: f64, y: f64) -> Vec<f64> {
        self.reflectors
            .iter()
            .map(|r| 2.0 * (r.depth_at(x, y) - self.water_depth).max(0.0) / self.sediment_velocity)
            .collect()
    }

    /// Specular reflection travel time between two seafloor points via the
    /// image-point method on reflector `idx` (straight rays at the
    /// sediment velocity, reflector depth taken at the midpoint).
    pub fn reflection_travel_time(&self, a: &Point3, b: &Point3, idx: usize) -> f64 {
        let r = &self.reflectors[idx];
        let mx = 0.5 * (a.x + b.x);
        let my = 0.5 * (a.y + b.y);
        let z = r.depth_at(mx, my);
        // Mirror b across the (locally horizontal) reflector plane.
        let mirrored = Point3::new(b.x, b.y, 2.0 * z - b.z);
        a.dist(&mirrored) / self.sediment_velocity
    }

    /// Geometrical-spreading distance for the same reflection path.
    pub fn reflection_distance(&self, a: &Point3, b: &Point3, idx: usize) -> f64 {
        self.reflection_travel_time(a, b, idx) * self.sediment_velocity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single flat reflector below the Overthrust water layer.
    fn single_flat_reflector(depth: f64, coefficient: f64) -> VelocityModel {
        VelocityModel {
            water_depth: 300.0,
            water_velocity: 1500.0,
            sediment_velocity: 2500.0,
            reflectors: vec![Reflector {
                depth0: depth,
                dip_x: 0.0,
                dip_y: 0.0,
                thrust_throw: 0.0,
                thrust_x: f64::INFINITY,
                coefficient,
            }],
            free_surface_coefficient: -1.0,
        }
    }

    #[test]
    fn thrust_offsets_depth() {
        let m = VelocityModel::overthrust();
        let r = &m.reflectors[1];
        let before = r.depth_at(2000.0, 0.0);
        let after = r.depth_at(2400.0, 0.0);
        // dip (-0.05 over 400 m = −20 m) plus throw (+180 m)
        assert!((after - before - 160.0).abs() < 1e-9);
    }

    #[test]
    fn water_travel_time_matches() {
        let m = VelocityModel::overthrust();
        assert!((m.water_travel_time() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_offset_reflection_time() {
        let m = single_flat_reflector(800.0, 0.2);
        let p = Point3::new(1000.0, 500.0, 300.0);
        let t = m.reflection_travel_time(&p, &p, 0);
        // two-way vertical: 2·(800−300)/2500 = 0.4 s
        assert!((t - 0.4).abs() < 1e-12);
    }

    #[test]
    fn reflection_time_grows_with_offset() {
        let m = single_flat_reflector(800.0, 0.2);
        let a = Point3::new(0.0, 0.0, 300.0);
        let b0 = Point3::new(0.0, 0.0, 300.0);
        let b1 = Point3::new(400.0, 0.0, 300.0);
        let b2 = Point3::new(800.0, 0.0, 300.0);
        let t0 = m.reflection_travel_time(&a, &b0, 0);
        let t1 = m.reflection_travel_time(&a, &b1, 0);
        let t2 = m.reflection_travel_time(&a, &b2, 0);
        assert!(t0 < t1 && t1 < t2);
    }

    #[test]
    fn twt_panel_positive_below_seafloor() {
        let m = VelocityModel::overthrust();
        let twt = m.reflector_twt_at(1500.0, 1000.0);
        assert_eq!(twt.len(), 3);
        assert!(twt.iter().all(|&t| t > 0.0));
        assert!(twt[0] < twt[1] && twt[1] < twt[2]);
    }
}
