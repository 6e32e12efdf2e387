//! The job-protocol decoders must return `WireError` on any input —
//! truncated, bit-flipped or pure noise — and never panic. A panicking
//! decoder would let one corrupt pipe byte take down the coordinator the
//! whole design exists to keep alive.
//!
//! Two layers: plain `#[test]` seeded-fuzz versions that run everywhere
//! (exhaustive truncations, deterministic bit flips, random noise), and
//! `proptest!` versions for richer exploration where the real proptest
//! crate is available.

use sb_fleet::proto::{CellSpec, FrameReader, JobMsg, WorkerMsg};
use sb_sim::engine::{run, run_digest, AlgorithmKind};
use sb_sim::ScenarioConfig;
use sb_wire::{Reader, Writer};

fn sample_spec() -> CellSpec {
    let scenario = ScenarioConfig::tiny();
    let kind = AlgorithmKind::Cear(scenario.cear);
    CellSpec {
        label: "fuzz-cell".into(),
        digest: run_digest(&scenario, &kind, 7),
        scenario,
        kind,
        seed: 7,
        build_threads: 3,
        chaos: Some(sb_fleet::proto::WorkerChaos::KillAtSlot(4)),
        ship: Some(sb_fleet::proto::SeriesShipment::Spill {
            path: "/tmp/series_0123.bin".into(),
            digest: 0x0123_4567_89ab_cdef,
        }),
    }
}

/// Every valid payload the protocol can produce, as raw bytes.
fn corpus() -> Vec<Vec<u8>> {
    let mut payloads = Vec::new();
    let mut push = |f: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        f(&mut w);
        payloads.push(w.into_bytes());
    };
    push(&|w| JobMsg::Run { job: 3, spec: Box::new(sample_spec()) }.encode(w));
    push(&|w| JobMsg::Shutdown.encode(w));
    push(&|w| WorkerMsg::Ready { pid: 1234, proto: 1 }.encode(w));
    push(&|w| WorkerMsg::Heartbeat { job: 3, slot: 17 }.encode(w));
    let metrics = run(&ScenarioConfig::tiny(), &AlgorithmKind::Ssp, 1);
    push(&|w| {
        WorkerMsg::Done { job: 3, digest: 0xabcd, metrics: Box::new(metrics.clone()) }.encode(w)
    });
    push(&|w| WorkerMsg::Failed { job: 3, detail: "engine exploded".into() }.encode(w));
    push(&|w| sample_spec().encode(w));
    payloads
}

/// Throws `bytes` at every decoder; the only requirement is "no panic".
fn decode_all(bytes: &[u8]) {
    let _ = JobMsg::decode(bytes);
    let _ = WorkerMsg::decode(bytes);
    let _ = CellSpec::decode(&mut Reader::new(bytes));
    // The framing layer must survive the same garbage.
    let mut frames = FrameReader::new(std::io::Cursor::new(bytes.to_vec()));
    while let Ok(sb_fleet::proto::NextFrame::Payload(_)) = frames.next_frame() {}
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn every_truncation_of_every_message_is_rejected_not_panicked() {
    for payload in corpus() {
        for cut in 0..payload.len() {
            decode_all(&payload[..cut]);
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic_any_decoder() {
    let mut rng = 0x5eed_f1ee_u64;
    for payload in corpus() {
        for _ in 0..200 {
            let mut bytes = payload.clone();
            // Flip 1–4 bits at seeded positions.
            let flips = 1 + (splitmix64(&mut rng) % 4) as usize;
            for _ in 0..flips {
                let bit = (splitmix64(&mut rng) as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            decode_all(&bytes);
        }
    }
}

#[test]
fn random_noise_never_panics_any_decoder() {
    let mut rng = 0xbad_cafe_u64;
    for len in [0usize, 1, 2, 7, 12, 64, 512, 4096] {
        for _ in 0..50 {
            let bytes: Vec<u8> = (0..len).map(|_| (splitmix64(&mut rng) & 0xff) as u8).collect();
            decode_all(&bytes);
        }
    }
}

#[test]
fn valid_reencodings_still_roundtrip_after_the_fuzz_suite() {
    // Sanity anchor: the corpus entries themselves decode fine, so the
    // fuzz tests above exercise real reject paths, not a broken corpus.
    let payloads = corpus();
    assert!(matches!(JobMsg::decode(&payloads[0]), Ok(JobMsg::Run { job: 3, .. })));
    assert!(matches!(JobMsg::decode(&payloads[1]), Ok(JobMsg::Shutdown)));
    assert!(matches!(WorkerMsg::decode(&payloads[2]), Ok(WorkerMsg::Ready { pid: 1234, .. })));
    assert!(CellSpec::decode(&mut Reader::new(&payloads[6])).is_ok());
}

// Property-test layer: explores arbitrary byte soup and arbitrary cut
// points. With the offline proptest stub these compile but stay inert;
// under the real crate (networked CI) they fuzz for real.
mod prop {
    // Used by the expanded proptest! bodies; an inert stub leaves it unused.
    #[allow(unused_imports)]
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
            decode_all(&bytes);
        }

        #[test]
        fn arbitrary_mutations_of_valid_messages_never_panic(
            idx in 0usize..7,
            cut in any::<u16>(),
            flip in any::<u64>(),
        ) {
            let corpus = corpus();
            let payload = &corpus[idx % corpus.len()];
            let mut bytes = payload[..(cut as usize) % (payload.len() + 1)].to_vec();
            if !bytes.is_empty() {
                let bit = (flip as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            decode_all(&bytes);
        }
    }
}
