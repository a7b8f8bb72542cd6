//! The paper's Table 1 ordering on this host's dataplane: the tuned
//! corner (kp 32, kn 16) forwards faster than poll batching alone
//! (32, 1), which forwards faster than no batching (1, 1). The three
//! corners run interleaved rep by rep, so a change in the host's speed
//! state hits all three alike, and each keeps its best of 5.

use rb_bench::{forward_pps, table1_router, udp64_frames};

#[test]
fn tuned_beats_poll_only_beats_untuned() {
    const FRAMES: usize = 8_192;
    let frames = udp64_frames(FRAMES);
    let mut routers = [(32, 16), (32, 1), (1, 1)].map(|(kp, kn)| table1_router(kp, kn, FRAMES, 0));
    let mut best = [0.0f64; 3];
    for _ in 0..5 {
        for (router, best) in routers.iter_mut().zip(&mut best) {
            *best = best.max(forward_pps(router, &frames));
        }
    }
    let [tuned, poll_only, untuned] = best;
    assert!(
        tuned > poll_only && poll_only > untuned,
        "Table 1 ordering violated: (32,16) {tuned:.0} pps, (32,1) {poll_only:.0} pps, (1,1) {untuned:.0} pps"
    );
}
