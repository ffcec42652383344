//! The crate's one deadline timer: a min-heap of `(fire time, task)` and
//! one lazily spawned thread that sleeps until the earliest entry is due.
//!
//! Three owners instantiate it — the client's reaper (call deadlines), the
//! fan-out group (hedges, retries and reconnects) and a fault plan (frames
//! held back by a delay) — and all get the same contract: every
//! scheduled task reaches the owner's handler **exactly once**, as
//! [`Fate::Due`] on the timer thread or as [`Fate::Cancelled`] on whichever
//! thread shut the timer down (or tried to schedule after it was). Nothing
//! queued is ever dropped silently, so a completion that rides on a task
//! cannot be lost.

use musuite_check::sync::{Condvar, Mutex};
use musuite_check::thread::{Builder, JoinHandle};
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// How a scheduled task reached its handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Its fire time passed; runs on the timer thread.
    Due,
    /// The timer shut down first; runs on the thread that shut it down.
    Cancelled,
}

struct Entry<T> {
    at: Instant,
    seq: u64,
    task: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct State<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
    shutdown: bool,
    thread: Option<JoinHandle<()>>,
    thread_id: Option<ThreadId>,
}

struct Shared<T> {
    name: &'static str,
    state: Mutex<State<T>>,
    wake: Condvar,
    handler: Box<dyn Fn(T, Fate) + Send + Sync>,
}

/// A deadline heap plus its thread; see the module docs for the contract.
pub(crate) struct Timer<T: Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Timer<T> {
    /// A timer whose thread (spawned at the first [`Timer::schedule`]) is
    /// called `name` and hands every task to `handler`.
    pub(crate) fn new(
        name: &'static str,
        handler: impl Fn(T, Fate) + Send + Sync + 'static,
    ) -> Timer<T> {
        Timer {
            shared: Arc::new(Shared {
                name,
                state: Mutex::new(State {
                    heap: BinaryHeap::new(),
                    seq: 0,
                    shutdown: false,
                    thread: None,
                    thread_id: None,
                }),
                wake: Condvar::new(),
                handler: Box::new(handler),
            }),
        }
    }

    /// Queues `task` to fire at `at`. After [`Timer::shutdown`] the task
    /// is handed straight back as [`Fate::Cancelled`].
    pub(crate) fn schedule(&self, at: Instant, task: T) {
        let mut state = self.shared.state.lock();
        if state.shutdown {
            drop(state);
            (self.shared.handler)(task, Fate::Cancelled);
            return;
        }
        let seq = state.seq;
        state.seq += 1;
        // The thread sleeps until the head is due: only a new head needs
        // to wake it.
        let new_head = state.heap.peek().is_none_or(|Reverse(head)| at < head.at);
        state.heap.push(Reverse(Entry { at, seq, task }));
        if state.thread.is_none() {
            state.thread = Some(spawn_timer_thread(self.shared.clone()));
        }
        drop(state);
        if new_head {
            self.shared.wake.notify_one();
        }
    }

    /// Stops the timer: every queued task is handed back as
    /// [`Fate::Cancelled`] on this thread, and the timer thread exits
    /// after the task it is running, if any. Does not wait for it (the
    /// caller may *be* it); dropping the timer does. Idempotent.
    pub(crate) fn shutdown(&self) {
        let cancelled = {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            std::mem::take(&mut state.heap)
        };
        self.shared.wake.notify_all();
        for Reverse(entry) in cancelled {
            (self.shared.handler)(entry.task, Fate::Cancelled);
        }
    }
}

impl<T: Send + 'static> Drop for Timer<T> {
    fn drop(&mut self) {
        self.shutdown();
        let (thread, thread_id) = {
            let mut state = self.shared.state.lock();
            (state.thread.take(), state.thread_id)
        };
        // A handler can hold the last reference to the timer's owner, in
        // which case this drop runs on the timer thread: it is already on
        // its way out and must not join itself.
        if thread_id != Some(std::thread::current().id()) {
            if let Some(handle) = thread {
                let _ = handle.join();
            }
        }
    }
}

/// The only place in the crate that spawns a deadline-heap thread.
fn spawn_timer_thread<T: Send + 'static>(shared: Arc<Shared<T>>) -> JoinHandle<()> {
    OsOpCounters::global().incr(OsOp::Clone);
    Builder::new()
        .name(shared.name.to_string())
        .spawn(move || {
            let mut state = shared.state.lock();
            state.thread_id = Some(std::thread::current().id());
            loop {
                if state.shutdown {
                    return;
                }
                let Some(Reverse(head)) = state.heap.peek() else {
                    shared.wake.wait(&mut state);
                    continue;
                };
                let now = Instant::now();
                if head.at > now {
                    let sleep = head.at - now;
                    shared.wake.wait_for(&mut state, sleep);
                    continue;
                }
                let Some(Reverse(entry)) = state.heap.pop() else { continue };
                // Run outside the lock: handlers schedule follow-up work.
                drop(state);
                (shared.handler)(entry.task, Fate::Due);
                state = shared.state.lock();
            }
        })
        .expect("spawn timer thread") // lint: allow(expect): deadlines, hedges and delayed frames are unenforceable without it
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn recording_timer() -> (Timer<u32>, mpsc::Receiver<(u32, Fate)>) {
        let (tx, rx) = mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        let timer = Timer::new("musuite-test-timer", move |task, fate| {
            tx.lock().unwrap().send((task, fate)).unwrap();
        });
        (timer, rx)
    }

    #[test]
    fn tasks_fire_in_deadline_order() {
        let (timer, rx) = recording_timer();
        let now = Instant::now();
        timer.schedule(now + Duration::from_millis(40), 2);
        timer.schedule(now + Duration::from_millis(10), 1);
        timer.schedule(now + Duration::from_millis(40), 3);
        let fired: Vec<_> =
            (0..3).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        assert_eq!(fired, vec![(1, Fate::Due), (2, Fate::Due), (3, Fate::Due)]);
    }

    #[test]
    fn shutdown_hands_every_queued_task_back_exactly_once() {
        let (timer, rx) = recording_timer();
        let far = Instant::now() + Duration::from_secs(3600);
        timer.schedule(far, 1);
        timer.schedule(far, 2);
        timer.shutdown();
        timer.shutdown();
        timer.schedule(far, 3);
        drop(timer);
        let mut seen: Vec<_> = rx.try_iter().collect();
        seen.sort_unstable_by_key(|(task, _)| *task);
        assert_eq!(seen, vec![(1, Fate::Cancelled), (2, Fate::Cancelled), (3, Fate::Cancelled)]);
    }

    #[test]
    fn dropping_the_timer_from_its_own_handler_does_not_self_join() {
        let slot: Arc<std::sync::Mutex<Option<Timer<()>>>> = Arc::default();
        let (tx, rx) = mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        let timer = Timer::new("musuite-test-timer", {
            let slot = slot.clone();
            move |(), _| {
                drop(slot.lock().unwrap().take());
                tx.lock().unwrap().send(()).unwrap();
            }
        });
        // Scheduled under the slot lock, so the handler finds the timer.
        slot.lock().unwrap().insert(timer).schedule(Instant::now(), ());
        rx.recv_timeout(Duration::from_secs(5)).expect("handler returned from the drop");
    }
}
