//! The benchmark's three workloads and the exact outputs recorded for
//! them. All run on the paper's Ω network; why each was chosen is in
//! `BENCHMARK.json` and `README.md`.

use ssmp_core::addr::Geometry;
use ssmp_engine::Tracer;
use ssmp_machine::{Machine, MachineConfig, Report, Workload};
use ssmp_workload::{Grain, Hotspot, HotspotParams, Sor, SorParams, WorkQueue, WorkQueueParams};

/// One benchmark workload: a machine preset and a generator, both made
/// from the seed.
pub struct Spec {
    pub name: &'static str,
    /// Arms the sanitizer, the profiler and the span stitcher.
    pub observed: bool,
    config: fn(u64) -> MachineConfig,
    generator: fn(u64) -> (Box<dyn Workload>, usize),
    records: Recorded,
}

/// The outputs recorded for a workload.
enum Recorded {
    /// Indexed by seed.
    PerSeed(&'static [Record]),
    /// The same for every seed.
    EverySeed(Record),
}

/// Work-queue tasks (fine grain, 64 references each) on `wq-bccbl-n64`.
const WQ_TASKS: usize = 8192;
/// References per node on `hotspot-mesi-n256`.
const HOTSPOT_REFS: usize = 64;
/// Red/black sweeps on `sor-dragon-observed-n64`.
const SOR_SWEEPS: usize = 4;

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "wq-bccbl-n64",
        observed: false,
        config: |seed| seeded(MachineConfig::bc_cbl(64), seed),
        generator: |seed| {
            let mut p = WorkQueueParams::strong(64, Grain::Fine, WQ_TASKS);
            p.seed = seed;
            let w = WorkQueue::new(p);
            let locks = w.machine_locks();
            (Box::new(w), locks)
        },
        records: Recorded::PerSeed(WQ_RECORDS),
    },
    Spec {
        name: "hotspot-mesi-n256",
        observed: false,
        config: |seed| seeded(MachineConfig::mesi(256), seed),
        generator: |seed| {
            let mut p = HotspotParams::new(256, 0.2, HOTSPOT_REFS);
            p.seed = seed;
            let w = Hotspot::new(p);
            let locks = w.machine_locks();
            (Box::new(w), locks)
        },
        records: Recorded::PerSeed(HOTSPOT_RECORDS),
    },
    Spec {
        name: "sor-dragon-observed-n64",
        observed: true,
        config: |seed| {
            let mut cfg = seeded(MachineConfig::dragon(64), seed);
            // SOR owns one boundary block per chunk (as `ssmp run` sizes it).
            cfg.geometry = Geometry::new(64, 4, cfg.geometry.shared_blocks.max(64));
            cfg
        },
        generator: |_seed| {
            let w = Sor::new(SorParams::packed(64, SOR_SWEEPS));
            let locks = w.machine_locks();
            (Box::new(w), locks)
        },
        records: Recorded::EverySeed(SOR_RECORD),
    },
];

fn seeded(mut cfg: MachineConfig, seed: u64) -> MachineConfig {
    cfg.seed = seed;
    cfg
}

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn config(&self, seed: u64) -> MachineConfig {
        (self.config)(seed)
    }

    /// A fresh generator and the machine lock count it needs.
    pub fn generator(&self, seed: u64) -> (Box<dyn Workload>, usize) {
        (self.generator)(seed)
    }

    /// Builds the machine for `seed`; `wrap` may interpose on the
    /// generator and `tracer` replaces the default (off) tracer.
    pub fn machine(
        &self,
        seed: u64,
        tracer: Option<Tracer>,
        wrap: impl FnOnce(Box<dyn Workload>) -> Box<dyn Workload>,
    ) -> Machine {
        let (w, locks) = self.generator(seed);
        let mut b = Machine::builder(self.config(seed))
            .workload(wrap(w))
            .locks(locks)
            .profile(self.observed)
            .spans(self.observed)
            .check(self.observed);
        if let Some(t) = tracer {
            b = b.tracer(t);
        }
        b.build()
            .expect("benchmark presets are valid configurations")
    }

    /// The outputs recorded for `seed`, if any.
    pub fn record(&self, seed: u64) -> Option<Record> {
        match &self.records {
            Recorded::PerSeed(table) => usize::try_from(seed)
                .ok()
                .and_then(|i| table.get(i))
                .copied(),
            Recorded::EverySeed(r) => Some(*r),
        }
    }
}

/// The simulated outputs a run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub completion_cycles: u64,
    pub messages: u64,
    pub events: u64,
    /// FNV-1a digest of `Report::shared_memory`.
    pub memory_digest: u64,
}

impl Record {
    /// The exact outputs of `r`, or why the run does not count.
    pub fn of(r: &Report) -> Result<Self, String> {
        if let Some(d) = &r.deadlock {
            return Err(format!("watchdog ended the run: {}", d.verdict));
        }
        if let Some(v) = r.violations.first() {
            return Err(format!(
                "sanitizer reported {} violation(s), first: {}",
                r.violations.len(),
                v.invariant
            ));
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in r.shared_memory.iter().flatten() {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Ok(Self {
            completion_cycles: r.completion,
            messages: r.total_messages(),
            events: r.events_popped,
            memory_digest: h,
        })
    }
}

const fn rec(completion_cycles: u64, messages: u64, events: u64, memory_digest: u64) -> Record {
    Record {
        completion_cycles,
        messages,
        events,
        memory_digest,
    }
}

// Recorded from the simulator this benchmark was written against.
const WQ_RECORDS: &[Record] = &[
    rec(244596, 555215, 1143159, 0x0ae49235997b73e2), // seed 0
    rec(246550, 563725, 1151934, 0x50e056168e41b221), // seed 1
    rec(247658, 562886, 1151078, 0x682071c3048f39cb), // seed 2
    rec(246899, 567251, 1155625, 0xfa546d6631c73b04), // seed 3
    rec(246457, 559613, 1147702, 0xdb1d490df2ed4ec9), // seed 4
    rec(246760, 563059, 1151245, 0xa0e9b3e2a855b3cf), // seed 5
    rec(246292, 564401, 1152675, 0x02cd2a6baf605f4d), // seed 6
    rec(246367, 562990, 1151108, 0x474bd17ab7fd9155), // seed 7
    rec(246404, 563493, 1151742, 0x4cb1bc55523249bb), // seed 8
    rec(247568, 566005, 1154331, 0xdf7edc0c4fc67738), // seed 9
    rec(245478, 552320, 1140302, 0x61f59c1860913350), // seed 10
    rec(245441, 560515, 1148645, 0xc794656a25546707), // seed 11
    rec(245255, 560283, 1148328, 0xea4e6ff346d43c17), // seed 12
    rec(245729, 556329, 1144337, 0xb74f578d98a84968), // seed 13
    rec(245936, 560043, 1148084, 0x47e49e9fa5cb6524), // seed 14
    rec(246364, 563604, 1151884, 0x7cecf5ed55ded406), // seed 15
];

const HOTSPOT_RECORDS: &[Record] = &[
    rec(186955, 1088830, 1105470, 0xa4001b8108c5eb25), // seed 0
    rec(196229, 1086704, 1103344, 0xa4001b8108c5eb25), // seed 1
    rec(199512, 1095002, 1111642, 0xa4001b8108c5eb25), // seed 2
    rec(199008, 1064658, 1081298, 0xa4001b8108c5eb25), // seed 3
    rec(193872, 1062176, 1078816, 0xa4001b8108c5eb25), // seed 4
    rec(175076, 1057560, 1074200, 0xa4001b8108c5eb25), // seed 5
    rec(200668, 1101160, 1117800, 0xa4001b8108c5eb25), // seed 6
    rec(181953, 1087942, 1104582, 0xa4001b8108c5eb25), // seed 7
    rec(188536, 1105200, 1121840, 0xa4001b8108c5eb25), // seed 8
    rec(188374, 1074532, 1091172, 0xa4001b8108c5eb25), // seed 9
    rec(186757, 1048420, 1065060, 0xa4001b8108c5eb25), // seed 10
    rec(190453, 1073340, 1089980, 0xa4001b8108c5eb25), // seed 11
    rec(185917, 1056632, 1073272, 0xa4001b8108c5eb25), // seed 12
    rec(186027, 1074384, 1091024, 0xa4001b8108c5eb25), // seed 13
    rec(195498, 1098654, 1115294, 0xa4001b8108c5eb25), // seed 14
    rec(185640, 1088876, 1105516, 0xa4001b8108c5eb25), // seed 15
];

/// SOR draws nothing from the seed.
const SOR_RECORD: Record = rec(487073, 143946, 166722, 0x397736624e51b525);
