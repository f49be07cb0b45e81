//! Memory-ordering litmus tests: the classic message-passing pattern
//! through the full machine, under sequential vs. buffered consistency.
//!
//! Under **SC** every global write stalls the processor until performed,
//! so program order is preserved globally: a reader that observes the flag
//! must observe the data.
//!
//! Under **BC** global writes drain asynchronously through the write
//! buffer; without an intervening `FLUSH-BUFFER` (or a CP-Synch
//! operation), a reader can observe the flag before the data — the weak
//! behaviour the model *permits*. Inserting the flush (as the paper's
//! software discipline requires before signalling) restores order.

use ssmp::core::addr::{Geometry, SharedAddr};
use ssmp::machine::op::Script;
use ssmp::machine::{Machine, MachineConfig, Op, Report};

// DATA is homed at the reader's module (block 1 → node 1 of 2); the pad
// writes share that home so DATA's drain queues behind them.
const DATA: SharedAddr = SharedAddr { block: 1, word: 0 };
// The flag is homed at the writer's own module (block 2 → node 0), so the
// flag write commits immediately.
const FLAG: SharedAddr = SharedAddr { block: 2, word: 0 };

/// Writer publishes data then flag; the reader holds an *enrolled cached
/// copy* of DATA (kept fresh by update pushes) and polls the flag with
/// `READ-GLOBAL` (always memory-fresh). Under BC without a flush, the flag
/// can commit while DATA still sits in the write buffer behind the pad
/// writes — the reader then observes flag = 1 with a stale cached DATA.
fn message_passing(mut cfg: MachineConfig, flush_between: bool, pad_writes: usize) -> Report {
    cfg.record_reads = true;
    cfg.geometry = Geometry::new(cfg.geometry.nodes, 4, 32);
    let mut writer = Vec::new();
    writer.push(Op::Compute(50)); // let the reader enroll first
                                  // Pad the write buffer with writes to DATA's home module so DATA's
                                  // commit is delayed behind their service times.
    for i in 0..pad_writes {
        let block = 1 + 2 * (1 + i % 4); // odd blocks: home = node 1
        writer.push(Op::SharedWriteVal(SharedAddr::new(block, (i % 4) as u8), 5));
    }
    writer.push(Op::SharedWriteVal(DATA, 1));
    if flush_between {
        writer.push(Op::FlushBuffer);
    }
    writer.push(Op::SharedWriteVal(FLAG, 1));
    writer.push(Op::FlushBuffer);

    let reader = vec![
        Op::SharedRead(DATA),         // enroll; cached copy now live
        Op::SpinUntilGlobal(FLAG, 1), // poll memory until the flag is set
        Op::SharedRead(DATA),         // cached: fresh only if already pushed
    ];

    let wl = Script::new(vec![writer, reader]);
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(1)
        .build()
        .unwrap()
        .run()
}

/// Extracts the reader's (node 1) observation: the data value read at the
/// first poll where the flag was already 1, if any.
fn observed_data_after_flag(r: &Report) -> Option<(u64, u64)> {
    let reads: Vec<_> = r.read_log.iter().filter(|(n, ..)| *n == 1).collect();
    let first_flag_set = reads
        .iter()
        .position(|(_, b, w, v)| *b == FLAG.block && *w == FLAG.word && *v == 1)?;
    let data = reads
        .iter()
        .skip(first_flag_set)
        .find(|(_, b, w, _)| *b == DATA.block && *w == DATA.word)?;
    Some((1, data.3))
}

#[test]
fn sc_forbids_message_passing_violation() {
    for pad in [0, 8, 16] {
        let r = message_passing(MachineConfig::sc_cbl(2), false, pad);
        if let Some((_, data)) = observed_data_after_flag(&r) {
            assert_eq!(
                data, 1,
                "SC must not let the flag overtake the data (pad={pad})"
            );
        }
    }
}

/// SC stalls on every global write, so the writes commit in program order
/// and the update push precedes any flag observation.
#[test]
fn sc_orders_even_cached_reads() {
    let r = message_passing(MachineConfig::sc_cbl(2), false, 16);
    let (_, data) = observed_data_after_flag(&r).expect("flag must be observed");
    assert_eq!(data, 1);
}

#[test]
fn bc_with_flush_restores_order() {
    for pad in [0, 8, 16, 32] {
        let r = message_passing(MachineConfig::bc_cbl(2), true, pad);
        if let Some((_, data)) = observed_data_after_flag(&r) {
            assert_eq!(
                data, 1,
                "FLUSH-BUFFER before the flag write must order the writes (pad={pad})"
            );
        }
    }
}

#[test]
fn bc_without_flush_can_reorder() {
    // The weak behaviour is *permitted*, not required; hunt for a
    // parameterisation that exposes it to prove the model is actually
    // weaker than SC.
    let mut violated = false;
    for pad in [4usize, 8, 16, 24, 32, 48, 64] {
        let r = message_passing(MachineConfig::bc_cbl(2), false, pad);
        if let Some((_, data)) = observed_data_after_flag(&r) {
            if data == 0 {
                violated = true;
                break;
            }
        }
    }
    assert!(
        violated,
        "buffered consistency should expose the data/flag reorder for some padding"
    );
}

#[test]
fn read_log_is_populated_and_ordered() {
    let r = message_passing(MachineConfig::sc_cbl(2), false, 0);
    assert!(!r.read_log.is_empty());
    // all recorded reads belong to the reader here
    assert!(r.read_log.iter().all(|(n, ..)| *n == 1));
    // flag observations are monotone (0…0 then 1…1): memory values only
    // move forward for a single writer
    let flags: Vec<u64> = r
        .read_log
        .iter()
        .filter(|(_, b, ..)| *b == FLAG.block)
        .map(|(.., v)| *v)
        .collect();
    let mut sorted = flags.clone();
    sorted.sort_unstable();
    assert_eq!(flags, sorted, "flag went backwards: {flags:?}");
}

#[test]
fn record_reads_off_keeps_log_empty() {
    let mut cfg = MachineConfig::sc_cbl(2);
    cfg.record_reads = false;
    let wl = Script::new(vec![
        vec![Op::SharedWriteVal(DATA, 1)],
        vec![Op::SharedRead(DATA)],
    ]);
    let r = Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(1)
        .build()
        .unwrap()
        .run();
    assert!(r.read_log.is_empty());
}

/// Both nodes hold enrolled copies of DATA's block. Node 1 writes another
/// word of it; node 0 writes DATA after `delay` cycles and reads it back
/// `gap` cycles later. Returns the value node 0 read.
fn read_own_write(cfg: MachineConfig, delay: u64, gap: u64) -> u64 {
    let mut cfg = cfg;
    cfg.record_reads = true;
    cfg.geometry = Geometry::new(2, 4, 32);
    let other = SharedAddr::new(DATA.block, 1);
    let node0 = vec![
        Op::SharedRead(DATA),
        Op::Compute(delay),
        Op::SharedWriteVal(DATA, 77),
        Op::Compute(gap),
        Op::SharedRead(DATA),
    ];
    let node1 = vec![
        Op::SharedRead(other),
        Op::Compute(40),
        Op::SharedWriteVal(other, 5),
    ];
    let r = Machine::builder(cfg)
        .workload(Box::new(Script::new(vec![node0, node1])))
        .locks(1)
        .build()
        .unwrap()
        .run();
    let (.., value) = r
        .read_log
        .iter()
        .rfind(|(n, ..)| *n == 0)
        .expect("node 0 read DATA");
    *value
}

/// A push for node 1's earlier write can reach node 0's copy after node
/// 0's store but before the home applies it; it carries memory without
/// node 0's value. The store's dirty bit keeps the word, so node 0 reads
/// its own write. Under SC with delay 39, the push lands one cycle after
/// the store and the read hits right after the ack.
#[test]
fn push_never_erases_a_nodes_own_write() {
    assert_eq!(read_own_write(MachineConfig::sc_cbl(2), 39, 1), 77);
    for (name, cfg) in [
        ("sc-cbl", MachineConfig::sc_cbl(2)),
        ("bc-cbl", MachineConfig::bc_cbl(2)),
    ] {
        for delay in 30..=45 {
            for gap in [1, 4, 16] {
                assert_eq!(
                    read_own_write(cfg.clone(), delay, gap),
                    77,
                    "{name}: node 0 lost its own write (delay {delay}, gap {gap})"
                );
            }
        }
    }
}
