//! Timing bench: sustained flit throughput of one IBI router. Plain
//! `std::time` harness — see `erapid_bench::timing`.

use erapid_bench::timing::bench;
use router::flit::{NodeId, PacketId};
use router::packet::Packet;
use router::routing::{PortId, TableRoute};
use router::{Router, RouterConfig};
use std::hint::black_box;

fn make_router(ports: u16) -> Router {
    let table = (0..ports).map(PortId).collect();
    Router::new(
        RouterConfig {
            in_ports: ports,
            out_ports: ports,
            vcs: 4,
            buf_depth: 4,
            downstream_depth: 64,
        },
        Box::new(TableRoute::new(table)),
    )
}

/// Drives `cycles` cycles of all-to-adjacent traffic through the router,
/// returning credits immediately.
fn drive(router: &mut Router, cycles: u64, ports: u16) {
    let mut id = 0u64;
    let mut out = Vec::new();
    for now in 0..cycles {
        for p in 0..ports {
            if router.can_accept(PortId(p), (now % 4) as u8)
                && router.input_space(PortId(p), (now % 4) as u8) == 4
            {
                let pkt = Packet {
                    id: PacketId(id),
                    src: NodeId(p as u32),
                    dst: NodeId(((p + 1) % ports) as u32),
                    flits: 8,
                    injected_at: now,
                    labelled: false,
                };
                id += 1;
                for f in pkt.flitize().into_iter().take(4) {
                    router.inject(PortId(p), (now % 4) as u8, f);
                }
            }
        }
        out.clear();
        router.step_into(now, &mut out);
        for &t in &out {
            router.credit(t.out_port, t.out_vc);
            black_box(t.flit.seq);
        }
    }
}

fn main() {
    for &ports in &[8u16, 16] {
        bench(
            &format!("router_step/{ports}x{ports}_1kcycles"),
            15,
            || make_router(ports),
            |mut r| {
                drive(&mut r, 1000, ports);
                r.stats().traversed
            },
        );
    }
}
