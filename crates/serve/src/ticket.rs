//! Per-request completion: a one-shot slot the worker fills.
//!
//! The output tensor is **preallocated at submission time** (the submitter
//! knows the model's per-sample output shape), so completing a request on
//! the worker is a `copy_from_slice` plus a state flip under a mutex —
//! no allocation on the serving hot path.
//!
//! Slots are also the unit of **buffer recycling** for the event-driven
//! connection plane: completion hands the request's input tensor back
//! through the slot (`complete_ok_returning` / `complete_err_returning`),
//! and the error path keeps the preallocated output buffer instead of
//! dropping it. The event loop reclaims both with `Slot::try_recycle`
//! and re-arms the slot for the next request with `Slot::rearm`, so a
//! pooled request context cycles through accept → execute → respond
//! without ever touching the heap.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use temco_tensor::Tensor;

use crate::error::ServeError;

enum SlotState {
    /// Waiting for a worker; holds the preallocated output buffer.
    Pending(Tensor),
    /// Finished; holds the verdict, the output buffer (filled on success,
    /// untouched on failure), and — when the completer used a
    /// `*_returning` variant — the request's input tensor for recycling.
    Done { verdict: Result<(), ServeError>, output: Tensor, input: Option<Tensor> },
    /// The result was claimed (by `Ticket::wait` or `try_recycle`).
    Taken,
}

pub(crate) struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl Slot {
    /// A pending slot owning the output buffer the worker will fill.
    pub fn pending(output: Tensor) -> Arc<Slot> {
        Arc::new(Slot { state: Mutex::new(SlotState::Pending(output)), done: Condvar::new() })
    }

    /// An idle slot with no request armed — the parked state of a pooled
    /// request context. Arm it with [`Slot::rearm`] before submission.
    pub fn idle() -> Arc<Slot> {
        Arc::new(Slot { state: Mutex::new(SlotState::Taken), done: Condvar::new() })
    }

    /// Fill the preallocated buffer with one sample's output row, mark
    /// the request done, and hand the request's input tensor back through
    /// the slot so a pooled context can reclaim it. No-op if already
    /// completed. Allocation-free.
    pub fn complete_ok_returning(&self, row: &[f32], input: Tensor) {
        self.finish(Ok(()), Some(row), Some(input));
    }

    /// Fail the request (deadline expiry, shutdown), returning the input
    /// tensor for recycling. No-op if already completed. The output
    /// buffer is kept in the slot for recycling too.
    pub fn complete_err_returning(&self, e: ServeError, input: Tensor) {
        self.finish(Err(e), None, Some(input));
    }

    fn finish(&self, verdict: Result<(), ServeError>, row: Option<&[f32]>, input: Option<Tensor>) {
        let mut st = self.state.lock().unwrap();
        if let SlotState::Pending(_) = *st {
            let SlotState::Pending(mut buf) = std::mem::replace(&mut *st, SlotState::Taken) else {
                unreachable!("checked Pending above");
            };
            if let Some(row) = row {
                buf.data_mut().copy_from_slice(row);
            }
            *st = SlotState::Done { verdict, output: buf, input };
            drop(st);
            self.done.notify_all();
        }
    }

    /// Non-blocking claim of a finished request's verdict and buffers,
    /// leaving the slot `Taken` (idle). `None` while still pending.
    /// Allocation-free — this is the event loop's completion hot path.
    pub fn try_recycle(&self) -> Option<(Result<(), ServeError>, Tensor, Option<Tensor>)> {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, SlotState::Taken) {
            SlotState::Done { verdict, output, input } => Some((verdict, output, input)),
            other @ SlotState::Pending(_) => {
                *st = other;
                None
            }
            SlotState::Taken => None,
        }
    }

    /// Re-arm an idle slot with a fresh output buffer for the next
    /// request. Panics if a request is still in flight — pooled contexts
    /// only rearm after `try_recycle` (or before first use).
    pub fn rearm(&self, output: Tensor) {
        let mut st = self.state.lock().unwrap();
        match *st {
            SlotState::Taken => *st = SlotState::Pending(output),
            _ => panic!("rearming a slot with a request still in flight"),
        }
    }

    /// Take back the output buffer of an armed-but-never-submitted slot
    /// (submission was rejected after `rearm`). Panics unless pending.
    pub fn disarm(&self) -> Tensor {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, SlotState::Taken) {
            SlotState::Pending(buf) => buf,
            _ => panic!("disarming a slot that is not pending"),
        }
    }
}

/// Handle to one in-flight request, returned by [`crate::Server::submit`].
/// Blocking-wait for the result; dropping the ticket abandons the request
/// (the worker still executes it, the result is discarded).
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
    pub(crate) enqueued: Instant,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .field("enqueued", &self.enqueued)
            .finish()
    }
}

impl Ticket {
    /// Block until the request completes and take the result.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        let mut st = self.slot.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Done { verdict, output, .. } => return verdict.map(|()| output),
                pending @ SlotState::Pending(_) => {
                    *st = pending;
                    st = self.slot.done.wait(st).unwrap();
                }
                SlotState::Taken => unreachable!("Ticket::wait consumes the only taker"),
            }
        }
    }

    /// Block until the request completes or `timeout` elapses; `Err(self)`
    /// gives the ticket back on timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Tensor, ServeError>, Ticket> {
        let deadline = Instant::now() + timeout;
        let mut st = self.slot.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Done { verdict, output, .. } => return Ok(verdict.map(|()| output)),
                pending @ SlotState::Pending(_) => {
                    *st = pending;
                    let now = Instant::now();
                    if now >= deadline {
                        drop(st);
                        return Err(self);
                    }
                    st = self.slot.done.wait_timeout(st, deadline - now).unwrap().0;
                }
                SlotState::Taken => unreachable!("Ticket::wait consumes the only taker"),
            }
        }
    }

    /// Whether the request has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        matches!(*self.slot.state.lock().unwrap(), SlotState::Done { .. })
    }

    /// When the request entered the queue.
    pub fn enqueued_at(&self) -> Instant {
        self.enqueued
    }
}
