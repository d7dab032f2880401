//! The Processor–Accelerator Training Protocol (paper §III-C, Listing 1).
//!
//! A faithful port of the paper's Pthreads handshake to
//! `parking_lot::{Mutex, Condvar}`:
//!
//! * each **trainer** produces gradients, increments `DONE`, signals the
//!   synchronizer, and blocks until the averaged gradients are broadcast;
//! * the **synchronizer** waits until `DONE == n`, gathers + averages,
//!   and broadcasts;
//! * each trainer then **ACK**s; the **runtime** proceeds to the next
//!   iteration once all ACKs have arrived.
//!
//! The protocol lives at the application layer: nothing here knows
//! whether a trainer is a CPU, GPU, FPGA, or custom accelerator.
//!
//! Its error arm: a trainer that fails mid-round [aborts](TrainingRound::abort)
//! it, which wakes the synchronizer and every peer with [`RoundAborted`]
//! instead of leaving them waiting for a `DONE` or `ACK` that never
//! comes. [`join_trainers`] then re-raises the failed trainer's panic.

use crate::sync::Synchronizer;
use hyscale_gnn::Gradients;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

struct State {
    /// Gradients deposited by trainers this iteration (`DONE` counter is
    /// the number of `Some` entries).
    slots: Vec<Option<Gradients>>,
    done: usize,
    averaged: Option<Arc<Gradients>>,
    acks: usize,
    /// A trainer failed; the round can never complete.
    aborted: bool,
}

/// The round was [aborted](TrainingRound::abort): a trainer failed
/// before the round completed, so no average exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundAborted;

impl std::fmt::Display for RoundAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a trainer failed and aborted the training round")
    }
}

impl std::error::Error for RoundAborted {}

/// Shared handshake state for one training round of `n` trainers.
pub struct TrainingRound {
    n: usize,
    state: Mutex<State>,
    trainer_signal: Condvar,
    broadcast_signal: Condvar,
    ack_signal: Condvar,
}

impl TrainingRound {
    /// A round expecting `n` trainers.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one trainer");
        Self {
            n,
            state: Mutex::new(State {
                slots: (0..n).map(|_| None).collect(),
                done: 0,
                averaged: None,
                acks: 0,
                aborted: false,
            }),
            trainer_signal: Condvar::new(),
            broadcast_signal: Condvar::new(),
            ack_signal: Condvar::new(),
        }
    }

    /// Trainer side (Listing 1 `Trainer_threads`): deposit gradients,
    /// `DONE++`, signal, wait for the averaged broadcast.
    ///
    /// # Errors
    /// [`RoundAborted`] if a peer aborts the round before the broadcast.
    ///
    /// # Panics
    /// If `idx` is out of range or deposits twice.
    pub fn trainer_done(
        &self,
        idx: usize,
        grads: Gradients,
    ) -> Result<Arc<Gradients>, RoundAborted> {
        let mut s = self.state.lock();
        assert!(idx < self.n, "trainer index out of range");
        assert!(s.slots[idx].is_none(), "trainer {idx} deposited twice");
        s.slots[idx] = Some(grads);
        s.done += 1;
        self.trainer_signal.notify_all();
        while s.averaged.is_none() && !s.aborted {
            self.broadcast_signal.wait(&mut s);
        }
        s.averaged.as_ref().map(Arc::clone).ok_or(RoundAborted)
    }

    /// Synchronizer side (Listing 1 `Synchronizer_thread`): wait for
    /// `DONE == n`, gather, average, broadcast. Returns the average.
    ///
    /// # Errors
    /// [`RoundAborted`] if a trainer aborts the round.
    pub fn synchronize(&self, sync: &Synchronizer) -> Result<Arc<Gradients>, RoundAborted> {
        let mut s = self.state.lock();
        while s.done != self.n && !s.aborted {
            self.trainer_signal.wait(&mut s);
        }
        if s.aborted {
            return Err(RoundAborted);
        }
        let parts: Vec<Gradients> = s
            .slots
            .iter_mut()
            .map(|g| g.take().expect("gradient"))
            .collect();
        let avg = Arc::new(sync.all_reduce(&parts));
        s.averaged = Some(Arc::clone(&avg));
        self.broadcast_signal.notify_all();
        Ok(avg)
    }

    /// Trainer acknowledgment after applying the weight update.
    pub fn trainer_ack(&self) {
        let mut s = self.state.lock();
        s.acks += 1;
        if s.acks == self.n {
            self.ack_signal.notify_all();
        }
    }

    /// Runtime side: block until every trainer has ACKed, then reset the
    /// round for the next iteration.
    ///
    /// # Errors
    /// [`RoundAborted`] if a trainer aborts the round before its ACK.
    pub fn runtime_wait_acks(&self) -> Result<(), RoundAborted> {
        let mut s = self.state.lock();
        while s.acks != self.n && !s.aborted {
            self.ack_signal.wait(&mut s);
        }
        if s.acks != self.n {
            return Err(RoundAborted);
        }
        // reset for reuse
        s.done = 0;
        s.acks = 0;
        s.averaged = None;
        for slot in &mut s.slots {
            *slot = None;
        }
        Ok(())
    }

    /// Error arm of the handshake: mark the round failed and wake the
    /// synchronizer, the runtime and every waiting trainer, whose waits
    /// then return [`RoundAborted`]. The round stays aborted.
    pub fn abort(&self) {
        self.state.lock().aborted = true;
        self.trainer_signal.notify_all();
        self.broadcast_signal.notify_all();
        self.ack_signal.notify_all();
    }

    /// A guard for a trainer thread's body: if the thread unwinds while
    /// it is alive, the round is [aborted](Self::abort).
    pub fn abort_on_panic(&self) -> AbortOnPanic<'_> {
        AbortOnPanic(self)
    }
}

/// Aborts its [`TrainingRound`] when dropped during a panic; see
/// [`TrainingRound::abort_on_panic`].
pub struct AbortOnPanic<'a>(&'a TrainingRound);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// Join a round's trainer threads in order. Once all have stopped,
/// re-raise the first failed trainer's own panic payload; otherwise
/// return their results in order.
pub fn join_trainers<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut results = Vec::with_capacity(handles.len());
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(result) => results.push(result),
            Err(payload) => {
                failure.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = failure {
        std::panic::resume_unwind(payload);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_tensor::Matrix;
    use std::thread;

    fn grad(v: f32, batch: usize) -> Gradients {
        Gradients {
            d_weights: vec![Matrix::full(2, 2, v)],
            d_biases: vec![vec![v; 2]],
            batch_size: batch,
        }
    }

    #[test]
    fn full_round_handshake() {
        let round = Arc::new(TrainingRound::new(3));
        let sync = Synchronizer::new();
        thread::scope(|s| {
            for i in 0..3 {
                let round = Arc::clone(&round);
                s.spawn(move || {
                    let avg = round.trainer_done(i, grad(i as f32, 10)).unwrap();
                    // averaged value must be mean of 0,1,2 = 1.0
                    assert!((avg.d_weights[0][(0, 0)] - 1.0).abs() < 1e-6);
                    round.trainer_ack();
                });
            }
            let avg = round.synchronize(&sync).unwrap();
            assert_eq!(avg.batch_size, 30);
            round.runtime_wait_acks().unwrap();
        });
    }

    #[test]
    fn round_is_reusable_across_iterations() {
        let round = Arc::new(TrainingRound::new(2));
        let sync = Synchronizer::new();
        for iter in 0..3 {
            thread::scope(|s| {
                for i in 0..2 {
                    let round = Arc::clone(&round);
                    s.spawn(move || {
                        let avg = round.trainer_done(i, grad(iter as f32, 5)).unwrap();
                        assert!((avg.d_weights[0][(0, 0)] - iter as f32).abs() < 1e-6);
                        round.trainer_ack();
                    });
                }
                round.synchronize(&sync).unwrap();
                round.runtime_wait_acks().unwrap();
            });
        }
    }

    #[test]
    fn weighted_average_respects_batch_sizes() {
        let round = Arc::new(TrainingRound::new(2));
        let sync = Synchronizer::new();
        thread::scope(|s| {
            let r1 = Arc::clone(&round);
            s.spawn(move || {
                r1.trainer_done(0, grad(0.0, 30)).unwrap();
                r1.trainer_ack();
            });
            let r2 = Arc::clone(&round);
            s.spawn(move || {
                r2.trainer_done(1, grad(4.0, 10)).unwrap();
                r2.trainer_ack();
            });
            let avg = round.synchronize(&sync).unwrap();
            // (30*0 + 10*4)/40 = 1.0
            assert!((avg.d_weights[0][(0, 0)] - 1.0).abs() < 1e-6);
            round.runtime_wait_acks().unwrap();
        });
    }

    #[test]
    fn a_trainer_panic_aborts_the_round_and_reaches_the_runtime() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;

        // Run the round on its own thread, so a regression (a round that
        // waits forever for trainer 1's DONE) fails the watchdog below
        // instead of hanging the test run.
        let (tx, rx) = mpsc::channel();
        let runtime = thread::spawn(move || {
            let round = TrainingRound::new(3);
            let sync = Synchronizer::new();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                thread::scope(|s| {
                    let handles: Vec<_> = (0..3)
                        .map(|i| {
                            let round = &round;
                            s.spawn(move || {
                                let _abort = round.abort_on_panic();
                                if i == 1 {
                                    panic!("trainer 1 failed");
                                }
                                round.trainer_done(i, grad(i as f32, 10)).ok()?;
                                round.trainer_ack();
                                Some(i)
                            })
                        })
                        .collect();
                    assert_eq!(round.synchronize(&sync).err(), Some(RoundAborted));
                    join_trainers(handles)
                })
            }));
            let message = outcome
                .err()
                .map(|payload| match payload.downcast::<&str>() {
                    Ok(msg) => msg.to_string(),
                    Err(_) => "a non-string payload".to_string(),
                });
            tx.send(message).expect("the test thread is waiting");
        });
        let message = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the round hung instead of aborting");
        runtime
            .join()
            .expect("the runtime thread reports through the channel");
        assert_eq!(message.as_deref(), Some("trainer 1 failed"));
    }

    #[test]
    #[should_panic(expected = "need at least one trainer")]
    fn rejects_zero_trainers() {
        let _ = TrainingRound::new(0);
    }
}
