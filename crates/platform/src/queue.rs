//! OpenWhisk-style request buffering.
//!
//! "OpenWhisk buffers and eventually drops requests if it cannot fulfill
//! them" (§7.2). The buffer is bounded in both length and waiting time:
//! requests that overflow the buffer or wait longer than the patience
//! threshold are dropped — exactly the mechanism that makes vanilla
//! OpenWhisk shed ~50 % of the Figure-8 workload.

use faascache_core::function::FunctionId;
use faascache_util::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A queued invocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// The requested function.
    pub function: FunctionId,
    /// When the request arrived.
    pub arrived: SimTime,
}

/// A bounded FIFO request buffer with waiting-time expiry.
///
/// # Examples
///
/// ```
/// use faascache_core::function::FunctionId;
/// use faascache_platform::queue::RequestQueue;
/// use faascache_util::{SimDuration, SimTime};
///
/// let mut q = RequestQueue::new(2, SimDuration::from_secs(60));
/// assert!(q.push(FunctionId::from_index(0), SimTime::ZERO));
/// assert!(q.push(FunctionId::from_index(1), SimTime::ZERO));
/// assert!(!q.push(FunctionId::from_index(2), SimTime::ZERO)); // full
/// ```
#[derive(Debug, Clone)]
pub struct RequestQueue {
    queue: VecDeque<QueuedRequest>,
    max_len: usize,
    patience: SimDuration,
}

impl RequestQueue {
    /// Creates a buffer holding at most `max_len` requests, each willing
    /// to wait at most `patience`.
    pub fn new(max_len: usize, patience: SimDuration) -> Self {
        RequestQueue {
            queue: VecDeque::new(),
            max_len,
            patience,
        }
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a request; returns `false` when the buffer is full (the
    /// caller counts the drop).
    pub fn push(&mut self, function: FunctionId, now: SimTime) -> bool {
        if self.queue.len() >= self.max_len {
            return false;
        }
        self.queue.push_back(QueuedRequest {
            function,
            arrived: now,
        });
        true
    }

    /// Drops requests that have waited past their patience; returns them.
    pub fn expire(&mut self, now: SimTime) -> Vec<QueuedRequest> {
        let mut dropped = Vec::new();
        // FIFO: expired requests are a prefix ordered by arrival time...
        // except the queue *is* arrival-ordered, so scan from the front.
        while let Some(front) = self.queue.front() {
            if now.since(front.arrived) > self.patience {
                dropped.push(self.queue.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        dropped
    }

    /// The next waiting request, if any (peek).
    pub fn front(&self) -> Option<&QueuedRequest> {
        self.queue.front()
    }

    /// Removes and returns the next waiting request.
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId::from_index(i)
    }

    #[test]
    fn fifo_order() {
        let mut q = RequestQueue::new(10, SimDuration::from_secs(60));
        q.push(f(1), SimTime::from_secs(1));
        q.push(f(2), SimTime::from_secs(2));
        assert_eq!(q.pop().unwrap().function, f(1));
        assert_eq!(q.pop().unwrap().function, f(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_rejects() {
        let mut q = RequestQueue::new(1, SimDuration::from_secs(60));
        assert!(q.push(f(1), SimTime::ZERO));
        assert!(!q.push(f(2), SimTime::ZERO));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn patience_expiry() {
        let mut q = RequestQueue::new(10, SimDuration::from_secs(30));
        q.push(f(1), SimTime::from_secs(0));
        q.push(f(2), SimTime::from_secs(20));
        let dropped = q.expire(SimTime::from_secs(31));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].function, f(1));
        assert_eq!(q.len(), 1);
        // Second request survives until t=50.
        assert!(q.expire(SimTime::from_secs(50)).is_empty());
        assert_eq!(q.expire(SimTime::from_secs(51)).len(), 1);
    }

    #[test]
    fn exact_patience_boundary_not_dropped() {
        let mut q = RequestQueue::new(10, SimDuration::from_secs(30));
        q.push(f(1), SimTime::ZERO);
        assert!(q.expire(SimTime::from_secs(30)).is_empty());
    }
}
