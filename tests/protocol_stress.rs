//! Concurrency stress for the Processor–Accelerator Training Protocol:
//! many trainers, many iterations, randomized completion order — the
//! DONE/ACK handshake must never deadlock, drop a gradient, or produce
//! an order-dependent average.

use hyscale::core::protocol::TrainingRound;
use hyscale::core::sync::Synchronizer;
use hyscale::gnn::Gradients;
use hyscale::tensor::Matrix;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn grad(v: f32, batch: usize) -> Gradients {
    Gradients {
        d_weights: vec![Matrix::full(4, 4, v)],
        d_biases: vec![vec![v; 4]],
        batch_size: batch,
    }
}

#[test]
fn sixteen_trainers_fifty_iterations() {
    let n = 16;
    let round = Arc::new(TrainingRound::new(n));
    let sync = Synchronizer::new();
    for iter in 0..50u32 {
        thread::scope(|s| {
            for i in 0..n {
                let round = Arc::clone(&round);
                s.spawn(move || {
                    // stagger completions to shuffle arrival order
                    if (i + iter as usize).is_multiple_of(3) {
                        thread::sleep(Duration::from_micros(50));
                    }
                    let avg = round.trainer_done(i, grad(i as f32, 10 + i)).unwrap();
                    // expected weighted mean of 0..16 with weights 10+i
                    let total: usize = (0..n).map(|k| 10 + k).sum();
                    let expect: f32 =
                        (0..n).map(|k| k as f32 * (10 + k) as f32).sum::<f32>() / total as f32;
                    assert!(
                        (avg.d_weights[0][(0, 0)] - expect).abs() < 1e-4,
                        "iteration {iter}: wrong average"
                    );
                    round.trainer_ack();
                });
            }
            let avg = round.synchronize(&sync).unwrap();
            assert_eq!(avg.batch_size, (0..n).map(|k| 10 + k).sum::<usize>());
            round.runtime_wait_acks().unwrap();
        });
    }
}

#[test]
fn average_is_arrival_order_independent() {
    // run the same round many times; staggered threads arrive in
    // different orders but the slot-indexed gather must give identical
    // bits every time
    let n = 8;
    let reference: Option<Vec<f32>> = None;
    let mut reference = reference;
    for round_no in 0..10 {
        let round = Arc::new(TrainingRound::new(n));
        let sync = Synchronizer::new();
        let mut result = None;
        thread::scope(|s| {
            for i in 0..n {
                let round = Arc::clone(&round);
                s.spawn(move || {
                    if (i * 7 + round_no) % 4 == 0 {
                        thread::sleep(Duration::from_micros(30 * (i as u64 + 1)));
                    }
                    round
                        .trainer_done(i, grad((i as f32 * 1.1).sin(), 5 * (i + 1)))
                        .unwrap();
                    round.trainer_ack();
                });
            }
            result = Some(round.synchronize(&sync).unwrap());
            round.runtime_wait_acks().unwrap();
        });
        let bits: Vec<f32> = result.unwrap().d_weights[0].as_slice().to_vec();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "round {round_no} diverged"),
        }
    }
}

#[test]
fn single_trainer_degenerate_round() {
    let round = Arc::new(TrainingRound::new(1));
    let sync = Synchronizer::new();
    thread::scope(|s| {
        let r = Arc::clone(&round);
        s.spawn(move || {
            let avg = r.trainer_done(0, grad(2.5, 7)).unwrap();
            assert_eq!(avg.d_weights[0][(0, 0)], 2.5);
            r.trainer_ack();
        });
        round.synchronize(&sync).unwrap();
        round.runtime_wait_acks().unwrap();
    });
}
