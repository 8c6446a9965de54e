//! Randomized tests of the router: no flit is lost or duplicated, per-packet
//! flit order is preserved, and every packet reaches the output port its
//! destination routes to.
//!
//! Cases are generated from fixed-seed `desim::rng` streams (no external
//! property-testing crate — the build runs offline), so every failure
//! reproduces exactly.

use desim::rng::Pcg32;
use router::flit::{NodeId, PacketId};
use router::inject::FlitInjector;
use router::packet::Packet;
use router::routing::{PortId, TableRoute};
use router::{Router, RouterConfig};
use std::collections::HashMap;

/// Drives a router with per-port injectors until everything drains (or a
/// generous cycle cap), returning the traversal log.
fn drive(
    ports: u16,
    vcs: u8,
    buf_depth: usize,
    downstream: u32,
    packets: Vec<Packet>,
) -> Vec<(u64, PortId, PacketId, u16, bool)> {
    let table: Vec<PortId> = (0..ports).map(PortId).collect();
    let mut router = Router::new(
        RouterConfig {
            in_ports: ports,
            out_ports: ports,
            vcs,
            buf_depth,
            downstream_depth: downstream,
        },
        Box::new(TableRoute::new(table)),
    );
    let mut injectors: Vec<FlitInjector> =
        (0..ports).map(|p| FlitInjector::new(PortId(p))).collect();
    let total_flits: u64 = packets.iter().map(|p| p.flits as u64).sum();
    for p in &packets {
        injectors[p.src.index() % ports as usize].enqueue(*p);
    }
    let mut log = Vec::new();
    let mut seen = 0u64;
    let mut now = 0u64;
    // Credits return one cycle after traversal (sink consumers).
    let mut pending_credits: Vec<(u64, PortId, u8)> = Vec::new();
    let mut out = Vec::new();
    while seen < total_flits && now < 200_000 {
        let mut i = 0;
        while i < pending_credits.len() {
            if pending_credits[i].0 <= now {
                let (_, port, vc) = pending_credits.swap_remove(i);
                router.credit(port, vc);
            } else {
                i += 1;
            }
        }
        for inj in &mut injectors {
            inj.tick(&mut router);
        }
        out.clear();
        router.step_into(now, &mut out);
        for &t in &out {
            pending_credits.push((now + 1, t.out_port, t.out_vc));
            log.push((
                now,
                t.out_port,
                t.flit.packet,
                t.flit.seq,
                t.flit.kind.is_tail(),
            ));
            seen += 1;
        }
        now += 1;
    }
    log
}

#[test]
fn random_traffic_conserves_and_orders_flits() {
    let mut rng = Pcg32::stream(0x0407_7E57, 0);
    for _case in 0..24 {
        let count = 1 + rng.below(39) as usize;
        let packets: Vec<Packet> = (0..count)
            .map(|i| Packet {
                id: PacketId(i as u64),
                src: NodeId(rng.below(4)),
                dst: NodeId(rng.below(4)),
                flits: rng.range(1, 5) as u16,
                injected_at: 0,
                labelled: false,
            })
            .collect();
        let vcs = rng.range(1, 3) as u8;
        let buf_depth = rng.range(1, 3) as usize;
        let downstream = rng.range(1, 7);
        let total_flits: u64 = packets.iter().map(|p| p.flits as u64).sum();
        let log = drive(4, vcs, buf_depth, downstream, packets.clone());
        // Conservation: every flit traverses exactly once.
        assert_eq!(log.len() as u64, total_flits, "flits lost or stuck");
        // Per-packet: in-order seqs, single output port, tail last.
        let mut per_packet: HashMap<PacketId, Vec<(u64, PortId, u16, bool)>> = HashMap::new();
        for &(t, port, id, seq, tail) in &log {
            per_packet.entry(id).or_default().push((t, port, seq, tail));
        }
        assert_eq!(per_packet.len(), packets.len());
        for p in &packets {
            let entries = &per_packet[&p.id];
            assert_eq!(entries.len(), p.flits as usize);
            // Flit seq strictly increasing in traversal order.
            for w in entries.windows(2) {
                assert!(w[0].2 < w[1].2, "packet {:?} out of order", p.id);
                assert!(w[0].0 <= w[1].0, "time went backwards");
            }
            // All flits exit through the routed port.
            let expect = PortId(p.dst.0 as u16);
            assert!(entries.iter().all(|e| e.1 == expect));
            // Tail is the final flit.
            assert!(entries.last().unwrap().3, "tail not last");
            assert!(entries[..entries.len() - 1].iter().all(|e| !e.3));
        }
    }
}

/// A router is work-conserving at an uncontended output: a single flow
/// sustains one flit per cycle once the pipeline fills.
#[test]
fn single_flow_throughput_is_full_rate() {
    let mut rng = Pcg32::stream(0x51_4A7E, 0);
    for _case in 0..8 {
        let flits = rng.range(8, 39) as u16;
        let packets = vec![Packet {
            id: PacketId(0),
            src: NodeId(0),
            dst: NodeId(1),
            flits,
            injected_at: 0,
            labelled: false,
        }];
        let log = drive(4, 2, 4, 64, packets);
        assert_eq!(log.len(), flits as usize);
        // After the head's RC+VA, flits move back-to-back: the span from
        // first to last traversal is exactly flits-1 cycles.
        let first = log.first().unwrap().0;
        let last = log.last().unwrap().0;
        assert_eq!(last - first, (flits - 1) as u64, "bubbles in the pipeline");
    }
}
