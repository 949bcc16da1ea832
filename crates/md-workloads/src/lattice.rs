//! Lattice generators for the benchmark decks.

use md_core::{SimBox, Vec3, V3};

/// Generates an fcc lattice of `nx × ny × nz` conventional cells with
/// lattice constant `a`, returning the box and the 4·nx·ny·nz positions.
pub fn fcc(nx: usize, ny: usize, nz: usize, a: f64) -> (SimBox, Vec<V3>) {
    let bx = SimBox::orthogonal(nx as f64 * a, ny as f64 * a, nz as f64 * a);
    let basis = [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(0.5, 0.5, 0.0),
        Vec3::new(0.5, 0.0, 0.5),
        Vec3::new(0.0, 0.5, 0.5),
    ];
    let mut x = Vec::with_capacity(4 * nx * ny * nz);
    for cx in 0..nx {
        for cy in 0..ny {
            for cz in 0..nz {
                for b in basis {
                    x.push(Vec3::new(
                        (cx as f64 + b.x) * a,
                        (cy as f64 + b.y) * a,
                        (cz as f64 + b.z) * a,
                    ));
                }
            }
        }
    }
    (bx, x)
}

/// The fcc lattice constant that realizes a reduced density `rho` (atoms per
/// unit volume): `a = (4/ρ)^{1/3}`.
pub fn fcc_lattice_constant(rho: f64) -> f64 {
    (4.0 / rho).powf(1.0 / 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcc_density_matches_request() {
        let rho = 0.8442;
        let a = fcc_lattice_constant(rho);
        let (bx, x) = fcc(5, 5, 5, a);
        let measured = x.len() as f64 / bx.volume();
        assert!((measured - rho).abs() < 1e-12);
        assert_eq!(x.len(), 500);
    }

    #[test]
    fn fcc_nearest_neighbor_distance() {
        let (bx, x) = fcc(3, 3, 3, 1.0);
        let mut dmin = f64::INFINITY;
        for i in 0..x.len() {
            for j in (i + 1)..x.len() {
                dmin = dmin.min(bx.min_image(x[i], x[j]).norm());
            }
        }
        assert!((dmin - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn all_fcc_sites_inside_box() {
        let (bx, x) = fcc(4, 4, 4, 1.7);
        assert!(x.iter().all(|p| bx.contains(*p)));
    }
}
