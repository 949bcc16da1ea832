//! LAMMPS-compatible file I/O: `read_data`/`write_data` for full system
//! state (the paper's decks ship as LAMMPS data files under `bench/`) and
//! XYZ trajectory dumps (the `Output` task of Table 1 covers "dump files").
//!
//! The data format implemented here covers the sections the benchmark suite
//! needs: header (counts, types, box bounds), `Masses`, `Atoms` (styles
//! `atomic`, `charge`, and `full`), `Velocities`, `Bonds`, `Angles`, and
//! `Dihedrals`. Round-tripping a deck through `write_data` → `read_data`
//! reproduces the state exactly (modulo float formatting at 1e-12).

use md_core::{AtomStore, CoreError, Result, SimBox, Vec3};
use std::fmt::Write as _;
use std::io::BufRead;
use std::path::Path;

/// Which per-atom columns the `Atoms` section carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomStyle {
    /// `id type x y z` — LJ/EAM-style decks.
    Atomic,
    /// `id type q x y z` — charged systems.
    Charge,
    /// `id mol type q x y z` — molecular systems (rhodo-class decks).
    Full,
}

impl AtomStyle {
    /// LAMMPS keyword for the style.
    pub fn label(self) -> &'static str {
        match self {
            AtomStyle::Atomic => "atomic",
            AtomStyle::Charge => "charge",
            AtomStyle::Full => "full",
        }
    }
}

/// Serializes a system to LAMMPS data-file text.
pub fn write_data_string(bx: &SimBox, atoms: &AtomStore, style: AtomStyle) -> String {
    let mut s = String::new();
    let n = atoms.len();
    let _ = writeln!(s, "LAMMPS data file via verlette (style {})", style.label());
    let _ = writeln!(s);
    let _ = writeln!(s, "{n} atoms");
    if !atoms.bonds().is_empty() {
        let _ = writeln!(s, "{} bonds", atoms.bonds().len());
    }
    if !atoms.angles().is_empty() {
        let _ = writeln!(s, "{} angles", atoms.angles().len());
    }
    if !atoms.dihedrals().is_empty() {
        let _ = writeln!(s, "{} dihedrals", atoms.dihedrals().len());
    }
    let ntypes = atoms.ntypes().max(1);
    let _ = writeln!(s, "{ntypes} atom types");
    let bond_types = atoms.bonds().iter().map(|b| b.kind).max().map(|m| m + 1);
    if let Some(bt) = bond_types {
        let _ = writeln!(s, "{bt} bond types");
    }
    let angle_types = atoms.angles().iter().map(|a| a.kind).max().map(|m| m + 1);
    if let Some(at) = angle_types {
        let _ = writeln!(s, "{at} angle types");
    }
    let dih_types = atoms
        .dihedrals()
        .iter()
        .map(|d| d.kind)
        .max()
        .map(|m| m + 1);
    if let Some(dt) = dih_types {
        let _ = writeln!(s, "{dt} dihedral types");
    }
    let _ = writeln!(s);
    let (lo, hi) = (bx.lo(), bx.hi());
    let _ = writeln!(s, "{:.12} {:.12} xlo xhi", lo.x, hi.x);
    let _ = writeln!(s, "{:.12} {:.12} ylo yhi", lo.y, hi.y);
    let _ = writeln!(s, "{:.12} {:.12} zlo zhi", lo.z, hi.z);
    let _ = writeln!(s);
    let _ = writeln!(s, "Masses");
    let _ = writeln!(s);
    for (t, &m) in atoms.masses_by_type().iter().enumerate() {
        let _ = writeln!(s, "{} {:.12}", t + 1, m);
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "Atoms # {}", style.label());
    let _ = writeln!(s);
    for i in 0..n {
        let p = atoms.x()[i];
        let t = atoms.kinds()[i] + 1;
        match style {
            AtomStyle::Atomic => {
                let _ = writeln!(s, "{} {} {:.12} {:.12} {:.12}", i + 1, t, p.x, p.y, p.z);
            }
            AtomStyle::Charge => {
                let _ = writeln!(
                    s,
                    "{} {} {:.12} {:.12} {:.12} {:.12}",
                    i + 1,
                    t,
                    atoms.charges()[i],
                    p.x,
                    p.y,
                    p.z
                );
            }
            AtomStyle::Full => {
                let _ = writeln!(
                    s,
                    "{} {} {} {:.12} {:.12} {:.12} {:.12}",
                    i + 1,
                    atoms.molecules()[i] + 1,
                    t,
                    atoms.charges()[i],
                    p.x,
                    p.y,
                    p.z
                );
            }
        }
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "Velocities");
    let _ = writeln!(s);
    for i in 0..n {
        let v = atoms.v()[i];
        let _ = writeln!(s, "{} {:.12} {:.12} {:.12}", i + 1, v.x, v.y, v.z);
    }
    if !atoms.bonds().is_empty() {
        let _ = writeln!(s);
        let _ = writeln!(s, "Bonds");
        let _ = writeln!(s);
        for (k, b) in atoms.bonds().iter().enumerate() {
            let _ = writeln!(s, "{} {} {} {}", k + 1, b.kind + 1, b.i + 1, b.j + 1);
        }
    }
    if !atoms.angles().is_empty() {
        let _ = writeln!(s);
        let _ = writeln!(s, "Angles");
        let _ = writeln!(s);
        for (k, a) in atoms.angles().iter().enumerate() {
            let _ = writeln!(
                s,
                "{} {} {} {} {}",
                k + 1,
                a.kind + 1,
                a.i + 1,
                a.j + 1,
                a.k + 1
            );
        }
    }
    if !atoms.dihedrals().is_empty() {
        let _ = writeln!(s);
        let _ = writeln!(s, "Dihedrals");
        let _ = writeln!(s);
        for (k, d) in atoms.dihedrals().iter().enumerate() {
            let _ = writeln!(
                s,
                "{} {} {} {} {} {}",
                k + 1,
                d.kind + 1,
                d.i + 1,
                d.j + 1,
                d.k + 1,
                d.l + 1
            );
        }
    }
    s
}

/// Writes a system to a LAMMPS data file.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_data(path: &Path, bx: &SimBox, atoms: &AtomStore, style: AtomStyle) -> Result<()> {
    let text = write_data_string(bx, atoms, style);
    std::fs::write(path, text).map_err(|e| CoreError::InvalidParameter {
        name: "write_data",
        reason: format!("{}: {e}", path.display()),
    })
}

/// Parses a LAMMPS data file from text.
///
/// # Errors
///
/// Returns an error for malformed headers, unknown sections, or counts that
/// do not match the declared totals.
pub fn read_data_string(text: &str, style: AtomStyle) -> Result<(SimBox, AtomStore)> {
    let bad = |reason: String| CoreError::InvalidParameter {
        name: "read_data",
        reason,
    };
    let mut natoms = 0usize;
    let mut ntypes = 0usize;
    let mut bounds = [[0.0f64; 2]; 3];
    let mut lines = text.lines().peekable();
    // Skip the title line.
    lines.next();

    // Header: read until the first named section.
    let section_names = [
        "Masses",
        "Atoms",
        "Velocities",
        "Bonds",
        "Angles",
        "Dihedrals",
    ];
    let mut section: Option<String> = None;
    for line in lines.by_ref() {
        let line = line.split('#').next().unwrap_or("").trim().to_string();
        if line.is_empty() {
            continue;
        }
        if section_names.iter().any(|s| line.starts_with(s)) {
            section = Some(line);
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [n, "atoms"] => natoms = n.parse().map_err(|_| bad(format!("bad atom count {n}")))?,
            [n, "atom", "types"] => {
                ntypes = n.parse().map_err(|_| bad(format!("bad type count {n}")))?
            }
            [lo, hi, "xlo", "xhi"] => {
                bounds[0] = [
                    lo.parse().map_err(|_| bad("bad xlo".into()))?,
                    hi.parse().map_err(|_| bad("bad xhi".into()))?,
                ]
            }
            [lo, hi, "ylo", "yhi"] => {
                bounds[1] = [
                    lo.parse().map_err(|_| bad("bad ylo".into()))?,
                    hi.parse().map_err(|_| bad("bad yhi".into()))?,
                ]
            }
            [lo, hi, "zlo", "zhi"] => {
                bounds[2] = [
                    lo.parse().map_err(|_| bad("bad zlo".into()))?,
                    hi.parse().map_err(|_| bad("bad zhi".into()))?,
                ]
            }
            // Bond/angle/dihedral counts and types: tolerated, re-derived.
            [_, "bonds"]
            | [_, "angles"]
            | [_, "dihedrals"]
            | [_, "bond", "types"]
            | [_, "angle", "types"]
            | [_, "dihedral", "types"] => {}
            _ => return Err(bad(format!("unrecognized header line {line:?}"))),
        }
    }
    if natoms == 0 {
        return Err(bad("no atoms declared".into()));
    }
    let bx = SimBox::new(
        Vec3::new(bounds[0][0], bounds[1][0], bounds[2][0]),
        Vec3::new(bounds[0][1], bounds[1][1], bounds[2][1]),
    )?;

    let mut atoms = AtomStore::with_capacity(natoms);
    let mut masses = vec![1.0f64; ntypes.max(1)];
    // Pre-fill atoms so sections can arrive in any order.
    let mut x = vec![Vec3::<f64>::zero(); natoms];
    let mut v = vec![Vec3::<f64>::zero(); natoms];
    let mut kind = vec![0u32; natoms];
    let mut charge = vec![0.0f64; natoms];
    let mut molecule = vec![0u32; natoms];
    let mut bonds: Vec<(u32, u32, u32)> = Vec::new();
    let mut angles: Vec<(u32, u32, u32, u32)> = Vec::new();
    let mut dihedrals: Vec<(u32, u32, u32, u32, u32)> = Vec::new();

    while let Some(sec) = section.take() {
        let name = sec.split_whitespace().next().unwrap_or("").to_string();
        // Body lines until the next section or EOF.
        for line in lines.by_ref() {
            let raw = line.split('#').next().unwrap_or("").trim();
            if raw.is_empty() {
                continue;
            }
            if section_names.iter().any(|s| raw.starts_with(s)) {
                section = Some(raw.to_string());
                break;
            }
            let p: Vec<&str> = raw.split_whitespace().collect();
            let f = |s: &str| -> Result<f64> {
                s.parse()
                    .map_err(|_| bad(format!("bad number {s:?} in {name}")))
            };
            let idx = |s: &str| -> Result<usize> {
                let one: usize = s
                    .parse()
                    .map_err(|_| bad(format!("bad id {s:?} in {name}")))?;
                if one == 0 || one > natoms {
                    return Err(bad(format!("id {one} out of range in {name}")));
                }
                Ok(one - 1)
            };
            match name.as_str() {
                "Masses" => {
                    let t: usize = idx(p[0]).map_or_else(
                        |_| {
                            p[0].parse::<usize>()
                                .map(|v| v - 1)
                                .map_err(|_| bad("bad type".into()))
                        },
                        Ok,
                    )?;
                    if t >= masses.len() {
                        masses.resize(t + 1, 1.0);
                    }
                    masses[t] = f(p[1])?;
                }
                "Atoms" => {
                    let i = idx(p[0])?;
                    match style {
                        AtomStyle::Atomic => {
                            kind[i] = f(p[1])? as u32 - 1;
                            x[i] = Vec3::new(f(p[2])?, f(p[3])?, f(p[4])?);
                        }
                        AtomStyle::Charge => {
                            kind[i] = f(p[1])? as u32 - 1;
                            charge[i] = f(p[2])?;
                            x[i] = Vec3::new(f(p[3])?, f(p[4])?, f(p[5])?);
                        }
                        AtomStyle::Full => {
                            molecule[i] = f(p[1])? as u32 - 1;
                            kind[i] = f(p[2])? as u32 - 1;
                            charge[i] = f(p[3])?;
                            x[i] = Vec3::new(f(p[4])?, f(p[5])?, f(p[6])?);
                        }
                    }
                }
                "Velocities" => {
                    let i = idx(p[0])?;
                    v[i] = Vec3::new(f(p[1])?, f(p[2])?, f(p[3])?);
                }
                "Bonds" => bonds.push((f(p[1])? as u32 - 1, idx(p[2])? as u32, idx(p[3])? as u32)),
                "Angles" => angles.push((
                    f(p[1])? as u32 - 1,
                    idx(p[2])? as u32,
                    idx(p[3])? as u32,
                    idx(p[4])? as u32,
                )),
                "Dihedrals" => dihedrals.push((
                    f(p[1])? as u32 - 1,
                    idx(p[2])? as u32,
                    idx(p[3])? as u32,
                    idx(p[4])? as u32,
                    idx(p[5])? as u32,
                )),
                other => return Err(bad(format!("unsupported section {other:?}"))),
            }
        }
        if section.is_none() {
            break;
        }
    }

    for i in 0..natoms {
        atoms.push_full(x[i], v[i], kind[i], charge[i], 0.0, molecule[i]);
    }
    atoms.set_masses(masses);
    for (k, i, j) in bonds {
        atoms.add_bond(k, i, j);
    }
    for (t, i, j, k) in angles {
        atoms.add_angle(t, i, j, k);
    }
    for (t, i, j, k, l) in dihedrals {
        atoms.add_dihedral(t, i, j, k, l);
    }
    atoms.validate()?;
    Ok((bx, atoms))
}

/// Reads a LAMMPS data file from disk.
///
/// # Errors
///
/// Propagates I/O and parse failures.
pub fn read_data(path: &Path, style: AtomStyle) -> Result<(SimBox, AtomStore)> {
    let text = std::fs::read_to_string(path).map_err(|e| CoreError::InvalidParameter {
        name: "read_data",
        reason: format!("{}: {e}", path.display()),
    })?;
    read_data_string(&text, style)
}

/// An XYZ trajectory dump writer (one frame per [`XyzDump::write_frame`]).
#[derive(Debug)]
pub struct XyzDump<W: std::io::Write> {
    out: W,
    frames: usize,
}

impl XyzDump<std::io::BufWriter<std::fs::File>> {
    /// Creates a dump writing to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> Result<Self> {
        let file = std::fs::File::create(path).map_err(|e| CoreError::InvalidParameter {
            name: "dump",
            reason: format!("{}: {e}", path.display()),
        })?;
        Ok(XyzDump {
            out: std::io::BufWriter::new(file),
            frames: 0,
        })
    }
}

impl<W: std::io::Write> XyzDump<W> {
    /// Creates a dump over any writer (pass `&mut buf` for in-memory use).
    pub fn new(out: W) -> Self {
        XyzDump { out, frames: 0 }
    }

    /// Frames written so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Appends one frame (element symbols default to `T<type>`).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_frame(&mut self, atoms: &AtomStore, step: u64) -> Result<()> {
        let werr = |e: std::io::Error| CoreError::InvalidParameter {
            name: "dump",
            reason: e.to_string(),
        };
        writeln!(self.out, "{}", atoms.len()).map_err(werr)?;
        writeln!(self.out, "Atoms. Timestep: {step}").map_err(werr)?;
        for i in 0..atoms.len() {
            let p = atoms.x()[i];
            writeln!(
                self.out,
                "T{} {:.6} {:.6} {:.6}",
                atoms.kinds()[i],
                p.x,
                p.y,
                p.z
            )
            .map_err(werr)?;
        }
        self.frames += 1;
        Ok(())
    }
}

/// A [`BufRead`]-based XYZ frame counter/reader for verification.
///
/// # Errors
///
/// Returns an error on malformed frame headers.
pub fn count_xyz_frames<R: BufRead>(reader: R) -> Result<usize> {
    let mut lines = reader.lines();
    let mut frames = 0usize;
    while let Some(first) = lines.next() {
        let first = first.map_err(|e| CoreError::InvalidParameter {
            name: "dump",
            reason: e.to_string(),
        })?;
        if first.trim().is_empty() {
            continue;
        }
        let n: usize = first
            .trim()
            .parse()
            .map_err(|_| CoreError::InvalidParameter {
                name: "dump",
                reason: format!("bad frame header {first:?}"),
            })?;
        // Comment line + n atom lines.
        for _ in 0..=n {
            lines.next();
        }
        frames += 1;
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::V3 as _V3;

    fn sample_system() -> (SimBox, AtomStore) {
        let bx = SimBox::orthogonal(4.0, 5.0, 6.0);
        let mut atoms = AtomStore::new();
        atoms.push_full(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.1, 0.2, 0.3),
            0,
            -0.5,
            0.0,
            0,
        );
        atoms.push_full(
            Vec3::new(2.5, 1.5, 0.5),
            Vec3::new(-0.1, 0.0, 0.4),
            1,
            0.5,
            0.0,
            0,
        );
        atoms.push_full(Vec3::new(3.0, 4.0, 5.0), Vec3::zero(), 0, 0.0, 0.0, 1);
        atoms.set_masses(vec![1.5, 2.5]);
        atoms.add_bond(0, 0, 1);
        atoms.add_angle(0, 0, 1, 2);
        atoms.add_dihedral(0, 0, 1, 2, 0);
        (bx, atoms)
    }

    #[test]
    fn data_roundtrip_full_style() {
        let (bx, atoms) = sample_system();
        let text = write_data_string(&bx, &atoms, AtomStyle::Full);
        let (bx2, atoms2) = read_data_string(&text, AtomStyle::Full).unwrap();
        assert!((bx.lengths() - bx2.lengths()).norm() < 1e-9);
        assert_eq!(atoms.len(), atoms2.len());
        for i in 0..atoms.len() {
            assert!((atoms.x()[i] - atoms2.x()[i]).norm() < 1e-9);
            assert!((atoms.v()[i] - atoms2.v()[i]).norm() < 1e-9);
            assert_eq!(atoms.kinds()[i], atoms2.kinds()[i]);
            assert!((atoms.charges()[i] - atoms2.charges()[i]).abs() < 1e-12);
            assert_eq!(atoms.molecules()[i], atoms2.molecules()[i]);
        }
        assert_eq!(atoms.bonds(), atoms2.bonds());
        assert_eq!(atoms.angles(), atoms2.angles());
        assert_eq!(atoms.dihedrals(), atoms2.dihedrals());
        assert_eq!(atoms.masses_by_type(), atoms2.masses_by_type());
    }

    #[test]
    fn data_roundtrip_atomic_style() {
        let (bx, atoms) = sample_system();
        let text = write_data_string(&bx, &atoms, AtomStyle::Atomic);
        let (_, atoms2) = read_data_string(&text, AtomStyle::Atomic).unwrap();
        assert_eq!(atoms2.len(), 3);
        // Charges are not carried by atomic style.
        assert!(atoms2.charges().iter().all(|&q| q == 0.0));
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(read_data_string("title\n\nnot a header\n", AtomStyle::Atomic).is_err());
        assert!(read_data_string("title\n\n0 atoms\n", AtomStyle::Atomic).is_err());
    }

    #[test]
    fn read_rejects_out_of_range_ids() {
        let text = "t\n\n1 atoms\n1 atom types\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo zhi\n\nAtoms\n\n5 1 0 0 0\n";
        assert!(read_data_string(text, AtomStyle::Atomic).is_err());
    }

    #[test]
    fn xyz_dump_counts_frames() {
        let (_, atoms) = sample_system();
        let mut buf = Vec::new();
        {
            let mut dump = XyzDump::new(&mut buf);
            dump.write_frame(&atoms, 0).unwrap();
            dump.write_frame(&atoms, 100).unwrap();
            assert_eq!(dump.frames(), 2);
        }
        let frames = count_xyz_frames(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(frames, 2);
    }

    #[test]
    fn deck_roundtrips_through_data_file() {
        // The real 32k LJ deck survives a write/read cycle.
        let mut deck = crate::build_deck(crate::Benchmark::Lj, 1, 3).unwrap();
        deck.simulation.run(2).unwrap();
        let bx = *deck.simulation.sim_box();
        let text = write_data_string(&bx, deck.simulation.atoms(), AtomStyle::Atomic);
        let (bx2, atoms2) = read_data_string(&text, AtomStyle::Atomic).unwrap();
        assert_eq!(atoms2.len(), 32_000);
        assert!((bx2.volume() - bx.volume()).abs() < 1e-6);
        let _unused: _V3 = atoms2.x()[0];
    }
}
