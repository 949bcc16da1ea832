//! Mixing rules for cross-type Lennard-Jones coefficients
//! (LAMMPS `pair_modify mix`, cited in the paper's Table 2: the Rhodopsin
//! deck uses `mix arithmetic`).

/// How ε and σ for unlike type pairs derive from the like-pair values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixingRule {
    /// Lorentz-Berthelot: `ε = √(ε_i ε_j)`, `σ = (σ_i + σ_j)/2`.
    Arithmetic,
    /// `ε = √(ε_i ε_j)`, `σ = √(σ_i σ_j)`.
    Geometric,
    /// `ε = 2√(ε_i ε_j) σ_i³σ_j³ / (σ_i⁶ + σ_j⁶)`, `σ = ((σ_i⁶+σ_j⁶)/2)^{1/6}`.
    SixthPower,
}

impl MixingRule {
    /// Mixed `(ε, σ)` for a type pair with like-pair parameters
    /// `(eps_i, sig_i)` and `(eps_j, sig_j)`.
    pub fn mix(self, eps_i: f64, sig_i: f64, eps_j: f64, sig_j: f64) -> (f64, f64) {
        match self {
            MixingRule::Arithmetic => ((eps_i * eps_j).sqrt(), 0.5 * (sig_i + sig_j)),
            MixingRule::Geometric => ((eps_i * eps_j).sqrt(), (sig_i * sig_j).sqrt()),
            MixingRule::SixthPower => {
                let s6i = sig_i.powi(6);
                let s6j = sig_j.powi(6);
                let eps =
                    2.0 * (eps_i * eps_j).sqrt() * sig_i.powi(3) * sig_j.powi(3) / (s6i + s6j);
                let sig = (0.5 * (s6i + s6j)).powf(1.0 / 6.0);
                (eps, sig)
            }
        }
    }

    /// LAMMPS keyword for this rule.
    pub fn label(self) -> &'static str {
        match self {
            MixingRule::Arithmetic => "arithmetic",
            MixingRule::Geometric => "geometric",
            MixingRule::SixthPower => "sixthpower",
        }
    }
}

impl std::fmt::Display for MixingRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_pairs_are_fixed_points() {
        for rule in [
            MixingRule::Arithmetic,
            MixingRule::Geometric,
            MixingRule::SixthPower,
        ] {
            let (e, s) = rule.mix(0.8, 2.0, 0.8, 2.0);
            assert!((e - 0.8).abs() < 1e-12, "{rule}: eps {e}");
            assert!((s - 2.0).abs() < 1e-12, "{rule}: sig {s}");
        }
    }

    #[test]
    fn arithmetic_averages_sigma() {
        let (e, s) = MixingRule::Arithmetic.mix(1.0, 1.0, 4.0, 3.0);
        assert!((e - 2.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_takes_roots() {
        let (e, s) = MixingRule::Geometric.mix(1.0, 1.0, 4.0, 4.0);
        assert!((e - 2.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mixing_is_symmetric() {
        for rule in [
            MixingRule::Arithmetic,
            MixingRule::Geometric,
            MixingRule::SixthPower,
        ] {
            let a = rule.mix(0.5, 1.2, 2.0, 3.4);
            let b = rule.mix(2.0, 3.4, 0.5, 1.2);
            assert!(
                (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12,
                "{rule}"
            );
        }
    }
}
