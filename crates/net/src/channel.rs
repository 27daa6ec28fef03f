//! The work channel every worker pool in this crate drains, the one
//! function that starts a pool, and the reply queue a caller waits on.
//!
//! A reply has one receiver: the quorum engine run or the
//! [`crate::TcpClient::call`] that asked. It travels on a [`Replies`]
//! queue, where a send wakes the receiver only if it is parked, and the
//! receiver takes everything queued at once. Work has several: a provider's `dasp-provider-{id}-w{w}` threads share one
//! request queue, a server's `dasp-tcp-worker-{w}` threads one job queue.
//! Shared behind a mutex, an `mpsc` receiver would be held by the worker
//! blocked in `recv`, so each message would also wake a sibling only to
//! block it on that mutex. Here a worker waits on a condvar holding
//! nothing, and a send wakes one worker. When the last [`Sender`] goes,
//! the workers drain the queue and their `recv` returns `None`; when the
//! last [`Receiver`] goes, a send fails.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

impl<T> State<T> {
    /// The count of live [`Sender`]s or of live [`Receiver`]s.
    fn ends(&mut self, send: bool) -> &mut usize {
        if send {
            &mut self.senders
        } else {
            &mut self.receivers
        }
    }
}

struct Chan<T> {
    state: Mutex<State<T>>,
    /// Most items queued at once (`usize::MAX`: unbounded).
    cap: usize,
    /// An item was queued, or an end closed.
    filled: Condvar,
    /// An item was taken from a bounded queue, or an end closed.
    drained: Condvar,
}

impl<T> Chan<T> {
    /// Every critical section leaves [`State`] valid, so a lock poisoned
    /// by a panicking peer is entered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }
}

/// One end of a channel; clones share it. `SEND` tells the two apart.
pub(crate) struct End<T, const SEND: bool>(Arc<Chan<T>>);

/// The sending end.
pub(crate) type Sender<T> = End<T, true>;

/// The receiving end: each item reaches exactly one receiver.
pub(crate) type Receiver<T> = End<T, false>;

/// Why [`Sender::try_send`] queued nothing; it hands the item back.
pub(crate) enum TrySendError<T> {
    /// A bounded channel is at its cap.
    Full(T),
    /// No receiver is left.
    Disconnected(T),
}

/// A channel that queues without limit.
pub(crate) fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX)
}

/// A channel that queues at most `cap` items: at the cap
/// [`Sender::send`] waits and [`Sender::try_send`] reports
/// [`TrySendError::Full`].
pub(crate) fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            items: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        cap,
        filled: Condvar::new(),
        drained: Condvar::new(),
    });
    (End(Arc::clone(&chan)), End(chan))
}

impl<T> Sender<T> {
    /// Queue `item`, waiting while the channel is full; hands it back
    /// once no receiver is left.
    pub(crate) fn send(&self, mut item: T) -> Result<(), T> {
        loop {
            match self.try_send(item) {
                Err(TrySendError::Full(back)) => item = back,
                Err(TrySendError::Disconnected(back)) => return Err(back),
                Ok(()) => return Ok(()),
            }
            let st = self.0.lock();
            if st.items.len() >= self.0.cap && st.receivers > 0 {
                drop(self.0.wait(&self.0.drained, st));
            }
        }
    }

    /// Queue `item` unless the channel is full or has no receiver.
    pub(crate) fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(item));
        }
        if st.items.len() >= self.0.cap {
            return Err(TrySendError::Full(item));
        }
        st.items.push_back(item);
        drop(st);
        self.0.filled.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// The next item, waiting for one; `None` once every sender is gone
    /// and the queue is empty.
    pub(crate) fn recv(&self) -> Option<T> {
        let mut st = self.0.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                if self.0.cap != usize::MAX {
                    self.0.drained.notify_one();
                }
                return Some(item);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.0.wait(&self.0.filled, st);
        }
    }
}

impl<T, const SEND: bool> Clone for End<T, SEND> {
    fn clone(&self) -> Self {
        *self.0.lock().ends(SEND) += 1;
        End(Arc::clone(&self.0))
    }
}

impl<T, const SEND: bool> Drop for End<T, SEND> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        *st.ends(SEND) -= 1;
        if *st.ends(SEND) == 0 {
            drop(st);
            self.0.filled.notify_all();
            self.0.drained.notify_all();
        }
    }
}

/// Start `count` threads, the `w`-th named `name(w)`, each passing what
/// it takes off `jobs` to `serve` until the channel closes. Returns the
/// handles of the threads the OS granted, which may be fewer.
pub(crate) fn spawn_workers<T, F>(
    count: usize,
    name: impl Fn(usize) -> String,
    jobs: &Receiver<T>,
    serve: F,
) -> Vec<JoinHandle<()>>
where
    T: Send + 'static,
    F: Fn(T) + Send + Sync + 'static,
{
    let serve = Arc::new(serve);
    (0..count)
        .filter_map(|w| {
            let (jobs, serve) = (jobs.clone(), Arc::clone(&serve));
            let worker = move || {
                while let Some(job) = jobs.recv() {
                    serve(job);
                }
            };
            std::thread::Builder::new().name(name(w)).spawn(worker).ok()
        })
        .collect()
}

struct ReplyState<T> {
    items: VecDeque<T>,
    /// The receiver waits on `arrived` and must be woken by a send.
    parked: bool,
}

struct ReplyChan<T> {
    state: Mutex<ReplyState<T>>,
    arrived: Condvar,
}

impl<T> ReplyChan<T> {
    /// As [`Chan::lock`]: no critical section leaves the state invalid.
    fn lock(&self) -> MutexGuard<'_, ReplyState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending end of a reply queue; clones share it.
pub(crate) struct ReplyTo<T>(Arc<ReplyChan<T>>);

/// The one receiving end of a reply queue.
pub(crate) struct Replies<T>(Arc<ReplyChan<T>>);

/// A reply queue: any number of senders, one receiver.
pub(crate) fn replies<T>() -> (ReplyTo<T>, Replies<T>) {
    let chan = Arc::new(ReplyChan {
        state: Mutex::new(ReplyState {
            items: VecDeque::new(),
            parked: false,
        }),
        arrived: Condvar::new(),
    });
    (ReplyTo(Arc::clone(&chan)), Replies(chan))
}

impl<T> ReplyTo<T> {
    /// Queue `item`, waking the receiver if it is parked. Never blocks.
    /// Once the receiver is gone nobody takes the item, and it is freed
    /// with the queue when the last sender goes.
    pub(crate) fn send(&self, item: T) {
        let mut st = self.0.lock();
        st.items.push_back(item);
        let wake = std::mem::replace(&mut st.parked, false);
        drop(st);
        if wake {
            self.0.arrived.notify_one();
        }
    }
}

impl<T> Clone for ReplyTo<T> {
    fn clone(&self) -> Self {
        ReplyTo(Arc::clone(&self.0))
    }
}

impl<T> Replies<T> {
    /// Move everything queued onto the back of `into`, in arrival order.
    /// With nothing queued, park until a send or `deadline`, whichever
    /// comes first; a deadline already passed takes without waiting.
    pub(crate) fn take(&self, deadline: Instant, into: &mut VecDeque<T>) {
        let mut st = self.0.lock();
        while st.items.is_empty() {
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                break;
            }
            st.parked = true;
            st = match self.0.arrived.wait_timeout(st, wait) {
                Ok((st, _)) => st,
                Err(poisoned) => poisoned.into_inner().0,
            };
            st.parked = false;
        }
        into.append(&mut st.items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    type Seen = mpsc::Receiver<(u32, String)>;

    /// `count` workers named `w0`, `w1`, … that report each item and the
    /// name of the thread that took it.
    fn reporting(count: usize, jobs: &Receiver<u32>) -> (Vec<JoinHandle<()>>, Seen) {
        let (seen_tx, seen) = mpsc::channel();
        let report = move |v| {
            let name = std::thread::current().name().unwrap_or_default().to_owned();
            seen_tx.send((v, name)).unwrap();
        };
        let workers = spawn_workers(count, |w| format!("w{w}"), jobs, report);
        assert_eq!(workers.len(), count);
        (workers, seen)
    }

    /// Everything `rx` has queued, or receives by `deadline`.
    fn taken<T>(rx: &Replies<T>, deadline: Instant) -> Vec<T> {
        let mut got = VecDeque::new();
        rx.take(deadline, &mut got);
        got.into()
    }

    #[test]
    fn replies_come_out_in_fifo_order() {
        let (tx, rx) = replies();
        let tx2 = tx.clone();
        (0..5).for_each(|v| if v % 2 == 0 { tx.send(v) } else { tx2.send(v) });
        let mut got = VecDeque::from([-1]);
        rx.take(Instant::now(), &mut got);
        assert_eq!(got, [-1, 0, 1, 2, 3, 4], "appended in arrival order");
        tx.send(5);
        assert_eq!(taken(&rx, Instant::now()), [5]);
    }

    #[test]
    fn parked_receiver_wakes_on_first_send() {
        let (tx, rx) = replies();
        std::thread::scope(|s| {
            let start = Instant::now();
            let deadline = start + Duration::from_secs(30);
            let rx = &rx;
            let waiting = s.spawn(move || taken(rx, deadline));
            while !rx.0.lock().parked {
                std::thread::yield_now();
            }
            tx.send(7);
            assert_eq!(waiting.join().unwrap(), [7]);
            assert!(start.elapsed() < Duration::from_secs(10), "woke late");
        });
    }

    #[test]
    fn wait_without_reply_ends_empty_at_its_deadline() {
        let (_tx, rx) = replies::<u32>();
        let start = Instant::now();
        let wait = Duration::from_millis(30);
        assert!(taken(&rx, start + wait).is_empty());
        assert!(start.elapsed() >= wait, "returned before its deadline");
        // A deadline already past takes without parking.
        assert!(taken(&rx, start).is_empty());
    }

    #[test]
    fn send_never_blocks_or_panics() {
        let (tx, rx) = replies();
        // Nobody parked: queued, nobody woken.
        tx.send(1);
        assert!(!rx.0.lock().parked);
        assert_eq!(taken(&rx, Instant::now()), [1]);
        // Receiver gone: nobody is woken, and the queue goes with the
        // last sender.
        drop(rx);
        tx.send(2);
        assert!(!tx.0.lock().parked);
    }

    #[test]
    fn unbounded_roundtrip() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        assert!(tx.send(1).is_ok() && tx2.send(2).is_ok());
        assert_eq!((rx.recv(), rx.recv()), (Some(1), Some(2)));
        drop((tx, tx2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn cloned_receivers_partition_messages() {
        let (tx, rx) = unbounded();
        let (workers, seen) = reporting(4, &rx);
        (0..1000).for_each(|v| assert!(tx.send(v).is_ok()));
        drop(tx);
        workers.into_iter().for_each(|w| w.join().unwrap());
        let mut got: Vec<_> = seen.iter().collect();
        got.sort_unstable();
        assert!(got.iter().map(|(v, _)| *v).eq(0..1000), "each item once");
        let names = ["w0", "w1", "w2", "w3"];
        assert!(got.iter().all(|(_, name)| names.contains(&name.as_str())));
    }

    #[test]
    fn try_send_full_and_disconnected() {
        let (tx, rx) = bounded(2);
        assert!(tx.try_send(1).is_ok() && tx.try_send(2).is_ok());
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv(), Some(1));
        assert!(tx.try_send(3).is_ok());
        drop(rx);
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }

    #[test]
    fn bounded_capacity_and_timeout() {
        let (tx, rx) = bounded(1);
        assert!(tx.send(9).is_ok());
        assert!(matches!(tx.try_send(10), Err(TrySendError::Full(10))));
        assert_eq!(rx.recv(), Some(9));
        std::thread::scope(|s| {
            // An empty queue with a live sender: `recv` outwaits the timeout,
            // then returns `None` once that sender is gone.
            let waiting = s.spawn(|| rx.recv());
            std::thread::sleep(Duration::from_millis(10));
            assert!(!waiting.is_finished(), "recv on an empty queue returned");
            drop(tx);
            assert_eq!(waiting.join().unwrap(), None);
        });
    }

    #[test]
    fn bounded_send_blocks_until_recv() {
        let (tx, rx) = bounded(1);
        assert!(tx.send(1).is_ok());
        std::thread::scope(|s| {
            let blocked = s.spawn(|| tx.send(2));
            std::thread::sleep(Duration::from_millis(30));
            assert!(!blocked.is_finished(), "a send past the cap returned");
            assert_eq!((rx.recv(), rx.recv()), (Some(1), Some(2)));
            assert!(blocked.join().unwrap().is_ok());
        });
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
        // A sender waiting at the cap is woken by the last receiver leaving.
        let (tx, rx) = bounded(1);
        assert!(tx.send(1).is_ok());
        std::thread::scope(|s| {
            let blocked = s.spawn(|| tx.send(2));
            std::thread::sleep(Duration::from_millis(10));
            drop(rx);
            assert_eq!(blocked.join().unwrap(), Err(2));
        });
    }

    #[test]
    fn disconnect_requires_all_senders_and_drains_buffer() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let (workers, seen) = reporting(2, &rx);
        (0..20).for_each(|v| assert!(tx.send(v).is_ok()));
        drop(tx);
        assert_eq!(seen.iter().take(20).count(), 20);
        // One sender is left, so the workers wait for it.
        std::thread::sleep(Duration::from_millis(20));
        assert!(workers.iter().all(|w| !w.is_finished()), "a worker left");
        assert!(tx2.send(20).is_ok());
        drop(tx2);
        workers.into_iter().for_each(|w| w.join().unwrap());
        assert_eq!(seen.iter().map(|(v, _)| v).collect::<Vec<_>>(), [20]);
    }
}
