//! End-to-end tour of the serving stack over the wire: an `RmsServer`
//! on loopback, driven entirely by the typed `rms-client` crate — a
//! writer pipelines mutations with `BATCH` frames while the
//! main thread holds a `SUBSCRIBE` connection and applies the pushed
//! `DELTA` stream, reconstructing the server's solution without ever
//! polling `QUERY` (run `krms serve` for the same server over a real
//! port, or see PR 3's history for the original in-process variant).
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use krms::prelude::*;
use krms::serve::{RmsServer, ServeConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rms_client::{ClientOp, RmsClient};
use std::collections::VecDeque;
use std::time::Instant;

const N: usize = 2_000;
const D: usize = 4;
const R: usize = 8;
const BATCH: usize = 64;
/// Whole batches only — the quiesce loop waits for exactly this count.
const OPS: usize = 94 * BATCH;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let initial = krms::data::generators::independent(&mut rng, N, D);

    let service = RmsService::start(
        FdRms::builder(D)
            .r(R)
            .epsilon(0.03)
            .max_utilities(1 << 10)
            .seed(3),
        initial,
        ServeConfig {
            queue_capacity: 512,
            max_batch: 256,
            mrr_directions: 2_000, // publish regret estimates…
            mrr_every: 8,          // …every 8 epochs
            ..ServeConfig::default()
        },
    )
    .expect("valid configuration");
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let server = std::thread::spawn(move || server.run().expect("server run"));

    // Writer: steady churn (insert a fresh tuple / retire the oldest),
    // pipelined BATCH frames — one ack per 64 ops instead of 64 acks.
    let writer = std::thread::spawn(move || {
        let mut client = RmsClient::connect(addr).expect("writer connect");
        let hello = client.hello();
        println!(
            "negotiated v{} (dim={}, k={}, r={})",
            hello.version, hello.dim, hello.k, hello.r
        );
        let mut rng = StdRng::seed_from_u64(23);
        let mut live: VecDeque<PointId> = (0..N as PointId).collect();
        let mut next: PointId = 1_000_000;
        for chunk in 0..(OPS / BATCH) {
            let ops: Vec<ClientOp> = (0..BATCH)
                .map(|i| {
                    if (chunk * BATCH + i) % 2 == 0 {
                        let coords = (0..D).map(|_| rng.gen()).collect();
                        live.push_back(next);
                        next += 1;
                        ClientOp::insert(next - 1, coords)
                    } else {
                        ClientOp::delete(live.pop_front().expect("window never drains"))
                    }
                })
                .collect();
            let acked = client.submit_batch(&ops).expect("batch ack");
            assert_eq!(acked, BATCH);
        }
        // Quiesce, then stop the server gracefully.
        loop {
            let stats = client.stats().expect("stats");
            if stats.ops_applied() == Some(OPS as u64) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        client.shutdown().expect("shutdown ack");
    });

    // Subscriber: the push stream replaces polling. Every DELTA line is
    // applied to the mirrored solution; the server closes the stream
    // after its final publish.
    let mut sub = RmsClient::connect(addr)
        .expect("subscriber connect")
        .subscribe(1)
        .expect("subscribe");
    println!(
        "subscribed: epoch {}, |Q| = {}",
        sub.epochs()[0],
        sub.ids().len()
    );
    println!("elapsed_ms  version  +added  -removed  n_live  |Q|");
    let start = Instant::now();
    let mut deltas = 0u64;
    while let Some(delta) = sub.next_delta().expect("delta stream") {
        deltas += 1;
        println!(
            "{:>10.1}  {:>7}  {:>6}  {:>8}  {:>6}  {:>3}",
            start.elapsed().as_secs_f64() * 1e3,
            delta.version,
            delta.added.len(),
            delta.removed.len(),
            delta.n,
            sub.ids().len(),
        );
    }
    writer.join().expect("writer thread");

    // The reconstructed solution must equal the engine's final result.
    let fds = server.join().expect("server thread");
    let fd = &fds[0];
    let final_ids: Vec<u64> = fd.result().iter().map(Point::id).collect();
    assert_eq!(sub.ids(), final_ids, "delta replay diverged");
    let est = RegretEstimator::new(D, 20_000, 99);
    println!(
        "\n{deltas} deltas reconstructed the final solution exactly: n={}, |Q|={}, mrr_1={:.4}",
        fd.len(),
        fd.result().len(),
        est.mrr(&fd.live_points(), &fd.result(), 1)
    );
}
