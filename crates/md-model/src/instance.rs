//! The two evaluation platforms of the paper's Table 3.

/// CPU specification (one socket).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub model: &'static str,
    /// Physical cores per socket.
    pub cores: usize,
    /// Hardware threads per socket.
    pub threads: usize,
    /// Base frequency (GHz).
    pub freq_ghz: f64,
    /// Turbo frequency (GHz).
    pub turbo_ghz: f64,
    /// L1 data cache per core (KiB).
    pub l1_kib: usize,
    /// L2 cache per core (KiB).
    pub l2_kib: usize,
    /// Shared L3 (MiB, per socket).
    pub l3_mib: f64,
    /// Process node (nm).
    pub tech_nm: usize,
    /// Thermal design power (W, per socket).
    pub tdp_w: f64,
}

/// GPU specification (one device).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub model: &'static str,
    /// Streaming multiprocessors.
    pub sms: usize,
    /// Global memory (GiB HBM).
    pub memory_gib: usize,
    /// Shared L2 (MiB).
    pub l2_mib: f64,
    /// L1 per SM (KiB).
    pub l1_kib: usize,
    /// Core frequency (GHz).
    pub freq_ghz: f64,
    /// Process node (nm).
    pub tech_nm: usize,
    /// Thermal design power (W).
    pub tdp_w: f64,
    /// FP32 peak (TFLOP/s).
    pub fp32_tflops: f64,
    /// FP64:FP32 throughput ratio.
    pub fp64_ratio: f64,
}

/// A full evaluation instance (Table 3 column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instance {
    /// Instance label ("CPU Inst." / "GPU Inst.").
    pub name: &'static str,
    /// Host CPU, per socket.
    pub cpu: CpuSpec,
    /// Sockets.
    pub sockets: usize,
    /// Host DRAM (GiB).
    pub memory_gib: usize,
    /// Accelerators, if any.
    pub gpu: Option<GpuSpec>,
    /// Number of accelerator devices.
    pub gpus: usize,
}

impl Instance {
    /// The paper's CPU instance: dual-socket Intel Xeon Platinum 8358.
    pub const fn cpu_instance() -> Instance {
        Instance {
            name: "CPU Inst.",
            cpu: CpuSpec {
                model: "Intel Xeon Platinum 8358",
                cores: 32,
                threads: 64,
                freq_ghz: 2.6,
                turbo_ghz: 3.4,
                l1_kib: 64,
                l2_kib: 1024,
                l3_mib: 48.0,
                tech_nm: 10,
                tdp_w: 250.0,
            },
            sockets: 2,
            memory_gib: 1024,
            gpu: None,
            gpus: 0,
        }
    }

    /// The paper's GPU instance: dual Xeon 8167M host with 8× NVIDIA V100.
    pub const fn gpu_instance() -> Instance {
        Instance {
            name: "GPU Inst.",
            cpu: CpuSpec {
                model: "Intel Xeon Platinum 8167M",
                cores: 26,
                threads: 52,
                freq_ghz: 2.0,
                turbo_ghz: 2.4,
                l1_kib: 32,
                l2_kib: 1024,
                l3_mib: 35.75,
                tech_nm: 14,
                tdp_w: 165.0,
            },
            sockets: 2,
            memory_gib: 768,
            gpu: Some(GpuSpec {
                model: "NVIDIA V100",
                sms: 84,
                memory_gib: 16,
                l2_mib: 6.0,
                l1_kib: 128,
                freq_ghz: 1.35,
                tech_nm: 12,
                tdp_w: 300.0,
                fp32_tflops: 14.0,
                fp64_ratio: 0.5,
            }),
            gpus: 8,
        }
    }

    /// Total physical cores across sockets.
    pub fn total_cores(&self) -> usize {
        self.cpu.cores * self.sockets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_cpu_instance() {
        let i = Instance::cpu_instance();
        assert_eq!(i.total_cores(), 64);
        assert_eq!(i.sockets, 2);
        assert_eq!(i.memory_gib, 1024);
        assert!(i.gpu.is_none());
    }

    #[test]
    fn table3_gpu_instance() {
        let i = Instance::gpu_instance();
        assert_eq!(i.gpus, 8);
        assert_eq!(i.total_cores(), 52);
        let g = i.gpu.expect("has a GPU");
        assert_eq!(g.sms, 84);
        assert_eq!(g.memory_gib, 16);
        assert_eq!(g.tdp_w, 300.0);
    }
}
