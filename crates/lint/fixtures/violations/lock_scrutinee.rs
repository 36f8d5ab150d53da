//! Fixture: lock guards created in `match` / `if let` / `while let`
//! scrutinees. The scrutinee's temporaries live through every arm, so
//! the guard is still held where the arm takes another lock — the
//! work-stealing deadlock shape: two idle workers, each holding its own
//! deque while waiting on the other's.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError, RwLock};

fn next_task(own: &Mutex<VecDeque<usize>>, others: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    match own
        .lock() // gdx-lint: expect(lock-scrutinee)
        .unwrap_or_else(PoisonError::into_inner)
        .pop_back()
    {
        Some(ci) => Some(ci),
        None => others.iter().find_map(|d| {
            d.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
        }),
    }
}

fn first(l: &RwLock<Vec<u64>>) -> u64 {
    if let Some(&x) = l.read().unwrap_or_else(PoisonError::into_inner).first() { // gdx-lint: expect(lock-scrutinee)
        return x;
    }
    0
}

fn drain(q: &Mutex<Vec<u64>>, out: &mut Vec<u64>) {
    while let Some(x) = q.lock().unwrap_or_else(PoisonError::into_inner).pop() { // gdx-lint: expect(lock-scrutinee)
        out.push(x);
    }
}
