//! The assembled characterization report: attribution + imbalance + MPI +
//! critical path + fault cost, distilled into a severity-ranked findings
//! list with a human-readable rendering.

use md_observe::Recorder;

use crate::attribution::{Breakdown, FaultCost, GpuAttribution, ImbalanceReport, MpiTable};
use crate::critical_path::{BoundSegment, CriticalPathSummary, DeviceCriticalPath};

/// How urgent a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Background fact worth knowing.
    Info,
    /// Something looks off; worth a look.
    Warning,
    /// Actionable problem (a named imbalance suspect).
    Critical,
}

impl Severity {
    /// Uppercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARNING",
            Severity::Critical => "CRITICAL",
        }
    }
}

/// One typed finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Urgency.
    pub severity: Severity,
    /// Stable machine-matchable kind (e.g. `"imbalance.suspect_rank"`).
    pub kind: &'static str,
    /// Human-readable statement.
    pub message: String,
}

/// Everything md-insight derived from one run.
#[derive(Debug, Clone, Default)]
pub struct InsightReport {
    /// Engine-side task breakdown (from step samples), if recorded.
    pub breakdown: Option<Breakdown>,
    /// Modeled-cluster task breakdown (rank-0 scaled ledger), if modeled.
    pub model_breakdown: Option<Breakdown>,
    /// Cross-rank imbalance, if per-rank stats were collected.
    pub imbalance: Option<ImbalanceReport>,
    /// Per-MPI-function overhead, if per-rank stats were collected.
    pub mpi: Option<MpiTable>,
    /// Critical-path summary, if step tracking ran.
    pub critical: Option<CriticalPathSummary>,
    /// Per-device kernel/memcpy/idle attribution, if the GPU model ran
    /// traced.
    pub gpu: Option<GpuAttribution>,
    /// Host↔device critical path, if the GPU model ran traced.
    pub device_critical: Option<DeviceCriticalPath>,
    /// What injected faults cost against the fault-free twin, if the
    /// modeled cluster ran with faults.
    pub fault_cost: Option<FaultCost>,
    /// Severity-ranked findings (most severe first).
    pub findings: Vec<Finding>,
}

/// Imbalance `%varavg` above this is a warning finding.
const VARAVG_WARN_PERCENT: f64 = 25.0;

impl InsightReport {
    /// Derives the findings list from whatever sections are present and
    /// sorts it most-severe-first. Call after populating the sections.
    pub fn finalize(&mut self) {
        let mut findings = Vec::new();
        if let Some(b) = &self.breakdown {
            findings.push(Finding {
                severity: Severity::Info,
                kind: "attribution.dominant_task",
                message: format!(
                    "engine time is dominated by {} ({:.1}% of {:.4} s over {} steps)",
                    b.dominant.label(),
                    b.dominant_percent,
                    b.total_seconds,
                    b.steps
                ),
            });
        }
        if let Some(b) = &self.model_breakdown {
            findings.push(Finding {
                severity: Severity::Info,
                kind: "attribution.model_dominant_task",
                message: format!(
                    "modeled cluster time is dominated by {} ({:.1}%)",
                    b.dominant.label(),
                    b.dominant_percent
                ),
            });
        }
        if let Some(imb) = &self.imbalance {
            match imb.suspect_rank {
                Some(rank) => findings.push(Finding {
                    severity: Severity::Critical,
                    kind: "imbalance.suspect_rank",
                    message: format!(
                        "load imbalance attributed to rank {rank}: its compute time \
                         exceeds the {}-rank mean by {:.1}%",
                        imb.nranks, imb.suspect_excess_percent
                    ),
                }),
                None => findings.push(Finding {
                    severity: Severity::Info,
                    kind: "imbalance.balanced",
                    message: format!(
                        "compute load is balanced across {} ranks (max excess {:.1}%)",
                        imb.nranks, imb.suspect_excess_percent
                    ),
                }),
            }
            if let Some(task) = imb.worst_task {
                if imb.worst_varavg_percent > VARAVG_WARN_PERCENT {
                    findings.push(Finding {
                        severity: Severity::Warning,
                        kind: "imbalance.varavg",
                        message: format!(
                            "{} %varavg is {:.1}% (LAMMPS convention: 100·(max−avg)/avg)",
                            task.label(),
                            imb.worst_varavg_percent
                        ),
                    });
                }
            }
        }
        if let Some(mpi) = &self.mpi {
            if mpi.total_mean_seconds > 0.0 {
                let skew_pct = 100.0 * mpi.skew_mean_seconds / mpi.total_mean_seconds;
                findings.push(Finding {
                    severity: if skew_pct > 50.0 {
                        Severity::Warning
                    } else {
                        Severity::Info
                    },
                    kind: "mpi.skew_share",
                    message: format!(
                        "{skew_pct:.1}% of MPI time is skew-induced waiting \
                         ({:.4} s of {:.4} s per rank)",
                        mpi.skew_mean_seconds, mpi.total_mean_seconds
                    ),
                });
            }
        }
        if let Some(cp) = &self.critical {
            if let (Some((rank, secs)), Some((task, _))) = (cp.top_rank, cp.top_task) {
                let share = if cp.total_seconds > 0.0 {
                    100.0 * secs / cp.total_seconds
                } else {
                    0.0
                };
                findings.push(Finding {
                    severity: if share > 50.0 {
                        Severity::Warning
                    } else {
                        Severity::Info
                    },
                    kind: "critical_path.top",
                    message: format!(
                        "critical path runs through rank {rank} for {share:.1}% of \
                         {} steps, mostly in {}",
                        cp.steps,
                        task.label()
                    ),
                });
            }
        }
        if let Some(gpu) = &self.gpu {
            if !gpu.devices.is_empty() && gpu.steps > 0 {
                let htod: f64 = gpu.devices.iter().map(|d| d.htod_bytes_per_step).sum();
                let dtoh: f64 = gpu.devices.iter().map(|d| d.dtoh_bytes_per_step).sum();
                if gpu.mean_memcpy_percent > 50.0 {
                    findings.push(Finding {
                        severity: Severity::Warning,
                        kind: "gpu.memcpy_bound",
                        message: format!(
                            "modeled device time is memcpy-bound: {:.1}% of active device \
                             time is PCIe copies across {} device(s) \
                             ({:.0} B/step HtoD, {:.0} B/step DtoH)",
                            gpu.mean_memcpy_percent,
                            gpu.devices.len(),
                            htod,
                            dtoh
                        ),
                    });
                } else {
                    findings.push(Finding {
                        severity: Severity::Info,
                        kind: "gpu.kernel_bound",
                        message: format!(
                            "modeled device time is kernel-bound: compute kernels take \
                             {:.1}% of active device time (memcpy {:.1}%)",
                            100.0 - gpu.mean_memcpy_percent,
                            gpu.mean_memcpy_percent
                        ),
                    });
                }
            }
        }
        if let Some(dcp) = &self.device_critical {
            if let Some(side) = dcp.dominant {
                let n = match side {
                    BoundSegment::Host => dcp.host_bound_steps,
                    BoundSegment::Copy => dcp.copy_bound_steps,
                    BoundSegment::Kernel => dcp.kernel_bound_steps,
                };
                let share = 100.0 * n as f64 / dcp.steps.len().max(1) as f64;
                findings.push(Finding {
                    severity: if side == BoundSegment::Copy && share > 50.0 {
                        Severity::Warning
                    } else {
                        Severity::Info
                    },
                    kind: match side {
                        BoundSegment::Host => "critical_path.device_host",
                        BoundSegment::Copy => "critical_path.device_copy",
                        BoundSegment::Kernel => "critical_path.device_kernel",
                    },
                    message: format!(
                        "the host<->device critical path is bounded by a {} segment in \
                         {n} of {} steps ({share:.1}%)",
                        side.label(),
                        dcp.steps.len()
                    ),
                });
            }
        }
        if let Some(cost) = &self.fault_cost {
            if let Some(top) = cost.tasks.first() {
                findings.push(Finding {
                    severity: Severity::Warning,
                    kind: "fault.cost",
                    message: format!(
                        "the injected faults add {:.3e} s to a modeled step ({:.3e} -> {:.3e} s \
                         against the fault-free twin), most of it in {} ({:+.3e} s)",
                        cost.step_delta(),
                        cost.twin_step,
                        cost.faulted_step,
                        top.task.label(),
                        top.delta
                    ),
                });
            }
        }
        findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
        self.findings = findings;
    }

    /// True when any finding is [`Severity::Critical`].
    pub fn has_critical(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity == Severity::Critical)
    }

    /// Publishes headline gauges on a recorder so the findings show up in
    /// metric exports: `insight_findings`, `imbalance_suspect_rank` (−1
    /// when balanced), `imbalance_worst_varavg_pct`.
    pub fn publish_counters(&self, recorder: &Recorder) {
        recorder.gauge(0, "insight_findings", self.findings.len() as f64);
        if let Some(imb) = &self.imbalance {
            recorder.gauge(
                0,
                "imbalance_suspect_rank",
                imb.suspect_rank.map_or(-1.0, |r| r as f64),
            );
            recorder.gauge(0, "imbalance_worst_varavg_pct", imb.worst_varavg_percent);
        }
    }

    /// Renders the full characterization report.
    pub fn render(&self) -> String {
        let mut out = String::from("== md-insight characterization report ==\n");
        out.push_str("\n-- findings --\n");
        if self.findings.is_empty() {
            out.push_str("(none)\n");
        }
        for f in &self.findings {
            out.push_str(&format!(
                "[{:<8}] {:<28} {}\n",
                f.severity.label(),
                f.kind,
                f.message
            ));
        }
        for (title, breakdown) in [
            ("engine task breakdown", &self.breakdown),
            ("modeled cluster task breakdown", &self.model_breakdown),
        ] {
            if let Some(b) = breakdown {
                out.push_str(&format!("\n-- {title} --\n"));
                for s in &b.shares {
                    out.push_str(&format!(
                        "{:<8} {:>12.6} s {:>6.1}%\n",
                        s.task.label(),
                        s.seconds,
                        s.percent
                    ));
                }
            }
        }
        if let Some(imb) = &self.imbalance {
            out.push_str("\n-- per-task load imbalance across ranks --\n");
            out.push_str("task         avg          max          min    %varavg\n");
            for t in &imb.per_task {
                out.push_str(&format!(
                    "{:<8} {:>10.6} {:>12.6} {:>12.6} {:>8.1}\n",
                    t.task.label(),
                    t.avg,
                    t.max,
                    t.min,
                    t.varavg_percent
                ));
            }
            out.push_str("rank compute seconds:");
            for (rank, s) in imb.rank_compute_seconds.iter().enumerate() {
                out.push_str(&format!(" r{rank}={s:.4}"));
            }
            out.push('\n');
        }
        if let Some(mpi) = &self.mpi {
            out.push_str("\n-- per-MPI-function overhead --\n");
            out.push_str("function        mean          max     % of MPI\n");
            for r in &mpi.rows {
                out.push_str(&format!(
                    "{:<12} {:>9.6} {:>12.6} {:>9.1}\n",
                    r.function.label(),
                    r.mean_seconds,
                    r.max_seconds,
                    r.percent_of_mpi
                ));
            }
            out.push_str(&format!(
                "mean MPI total {:.6} s, skew-wait {:.6} s\n",
                mpi.total_mean_seconds, mpi.skew_mean_seconds
            ));
        }
        if let Some(cp) = &self.critical {
            out.push_str("\n-- critical path --\n");
            out.push_str(&cp.render());
        }
        if let Some(gpu) = &self.gpu {
            out.push_str("\n-- per-device breakdown --\n");
            out.push_str(&gpu.render());
        }
        if let Some(dcp) = &self.device_critical {
            out.push_str("\n-- host<->device critical path --\n");
            out.push_str(&dcp.render());
        }
        if let Some(cost) = &self.fault_cost {
            out.push_str("\n-- fault cost against the fault-free twin --\n");
            out.push_str(&cost.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::ImbalanceReport;
    use md_core::{TaskKind, TaskLedger};
    use md_observe::ObserveConfig;

    fn skewed_ledgers() -> Vec<TaskLedger> {
        (0..4)
            .map(|rank| {
                let mut l = TaskLedger::new();
                l.add(TaskKind::Pair, if rank == 3 { 5.0 } else { 1.0 });
                l
            })
            .collect()
    }

    #[test]
    fn findings_rank_critical_first_and_name_the_rank() {
        let mut report = InsightReport {
            imbalance: Some(ImbalanceReport::from_rank_ledgers(&skewed_ledgers())),
            ..InsightReport::default()
        };
        report.finalize();
        assert!(report.has_critical());
        assert_eq!(report.findings[0].severity, Severity::Critical);
        assert_eq!(report.findings[0].kind, "imbalance.suspect_rank");
        assert!(report.findings[0].message.contains("rank 3"));
        let rendered = report.render();
        assert!(rendered.contains("CRITICAL"));
        assert!(rendered.contains("%varavg"));
    }

    #[test]
    fn balanced_run_without_baseline_has_no_critical_findings() {
        let ledgers = vec![
            {
                let mut l = TaskLedger::new();
                l.add(TaskKind::Pair, 2.0);
                l
            };
            4
        ];
        let mut report = InsightReport {
            imbalance: Some(ImbalanceReport::from_rank_ledgers(&ledgers)),
            ..InsightReport::default()
        };
        report.finalize();
        assert!(!report.has_critical());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == "imbalance.balanced"));
    }

    #[test]
    fn gpu_sections_produce_ranked_findings() {
        use crate::attribution::DeviceBreakdown;
        use crate::critical_path::{BoundSegment, DeviceCriticalPath, DeviceStepBound};
        let gpu = GpuAttribution {
            devices: vec![DeviceBreakdown {
                device: 0,
                kernel_seconds: 1.0,
                memcpy_seconds: 3.0,
                idle_seconds: 1.0,
                active_seconds: 4.0,
                memcpy_percent_of_active: 75.0,
                kernel_percent_of_active: 25.0,
                idle_percent: 20.0,
                htod_bytes_per_step: 4096.0,
                dtoh_bytes_per_step: 2048.0,
            }],
            steps: 10,
            total_seconds: 5.0,
            mean_memcpy_percent: 75.0,
        };
        let dcp = DeviceCriticalPath {
            steps: vec![DeviceStepBound {
                step: 0,
                device: 0,
                host_seconds: 0.1,
                device_seconds: 0.4,
                bound: BoundSegment::Copy,
                kind: Some(md_model::KernelKind::MemcpyHtoD),
                seconds: 0.3,
            }],
            host_bound_steps: 0,
            copy_bound_steps: 1,
            kernel_bound_steps: 0,
            dominant: Some(BoundSegment::Copy),
            bound_seconds: 0.3,
            total_seconds: 0.5,
        };
        let mut report = InsightReport {
            gpu: Some(gpu),
            device_critical: Some(dcp),
            ..InsightReport::default()
        };
        report.finalize();
        let memcpy = report
            .findings
            .iter()
            .find(|f| f.kind == "gpu.memcpy_bound")
            .expect("memcpy-bound finding");
        assert_eq!(memcpy.severity, Severity::Warning);
        assert!(memcpy.message.contains("75.0%"));
        let copy = report
            .findings
            .iter()
            .find(|f| f.kind == "critical_path.device_copy")
            .expect("device-copy finding");
        assert_eq!(copy.severity, Severity::Warning);
        let rendered = report.render();
        assert!(rendered.contains("per-device breakdown"));
        assert!(rendered.contains("host<->device critical path"));
    }

    #[test]
    fn kernel_bound_gpu_attribution_is_informational() {
        use crate::attribution::DeviceBreakdown;
        let gpu = GpuAttribution {
            devices: vec![DeviceBreakdown {
                device: 0,
                kernel_seconds: 4.0,
                memcpy_seconds: 1.0,
                idle_seconds: 0.0,
                active_seconds: 5.0,
                memcpy_percent_of_active: 20.0,
                kernel_percent_of_active: 80.0,
                idle_percent: 0.0,
                htod_bytes_per_step: 1024.0,
                dtoh_bytes_per_step: 512.0,
            }],
            steps: 5,
            total_seconds: 5.0,
            mean_memcpy_percent: 20.0,
        };
        let mut report = InsightReport {
            gpu: Some(gpu),
            ..InsightReport::default()
        };
        report.finalize();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == "gpu.kernel_bound")
            .expect("kernel-bound finding");
        assert_eq!(f.severity, Severity::Info);
        assert!(!report.has_critical());
    }

    #[test]
    fn fault_cost_finding_names_the_step_delta_and_the_top_task() {
        let twin = skewed_ledgers()[0].clone();
        let mut faulted = twin.clone();
        faulted.add(TaskKind::Comm, 3.0);
        faulted.add(TaskKind::Pair, 1.0);
        let mut report = InsightReport {
            fault_cost: Some(FaultCost::from_ledgers(&faulted, &twin, 10)),
            ..InsightReport::default()
        };
        report.finalize();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == "fault.cost")
            .expect("fault-cost finding");
        assert_eq!(f.severity, Severity::Warning);
        assert!(f.message.contains("add 4.000e-1 s"), "{}", f.message);
        assert!(f.message.contains("most of it in Comm"), "{}", f.message);
        assert!(report
            .render()
            .contains("fault cost against the fault-free twin"));
    }

    #[test]
    fn counters_follow_the_naming_convention_and_publish() {
        let mut report = InsightReport {
            imbalance: Some(ImbalanceReport::from_rank_ledgers(&skewed_ledgers())),
            ..InsightReport::default()
        };
        report.finalize();
        let rec = Recorder::new(ObserveConfig::default());
        report.publish_counters(&rec);
        let snap = rec.snapshot();
        for name in snap.counters.keys() {
            assert!(
                md_observe::counter_name_allowed(name),
                "{name} violates the counter-naming convention"
            );
        }
        assert_eq!(snap.counters["imbalance_suspect_rank"], 3.0);
        assert!(snap.counters["insight_findings"] >= 2.0);
    }
}
