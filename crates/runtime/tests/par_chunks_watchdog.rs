//! Regression test for a `par_chunks` deadlock: a worker's own-deque lock
//! guard, kept alive through the steal arm of the scheduler loop, made two
//! workers that ran out of work together wait on each other's deques
//! forever. Many short rounds at two workers make that interleaving
//! likely; a watchdog turns a hang into a named failure instead of a
//! stalled test run.

use gdx_runtime::Runtime;
use std::sync::mpsc;
use std::time::Duration;

const ROUNDS: usize = 20_000;
const WATCHDOG: Duration = Duration::from_secs(60);

#[test]
fn par_chunks_never_deadlocks_at_two_workers() {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let rt = Runtime::with_workers(2);
        let items: Vec<u64> = (0..64).collect();
        for _ in 0..ROUNDS {
            let sums = rt.par_chunks(&items, 1, |_, chunk| chunk.iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), 64 * 63 / 2);
        }
        let _ = done.send(());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "par_chunks deadlock: {ROUNDS} rounds at 2 workers did not finish within \
             {WATCHDOG:?} (workers waiting on each other's deque locks)"
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("par_chunks round panicked"),
    }
}
