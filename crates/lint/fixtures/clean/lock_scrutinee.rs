//! Clean twin of `violations/lock_scrutinee.rs`: the guarded value is
//! bound in a `let` first, so each guard drops at that statement's end,
//! before any arm can take another lock.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError, RwLock};

fn next_task(own: &Mutex<VecDeque<usize>>, others: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    let mine = own
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_back();
    match mine {
        Some(ci) => Some(ci),
        None => others.iter().find_map(|d| {
            d.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
        }),
    }
}

fn first(l: &RwLock<Vec<u64>>) -> u64 {
    let head = l.read().unwrap_or_else(PoisonError::into_inner).first().copied();
    if let Some(x) = head {
        return x;
    }
    0
}

fn drain(q: &Mutex<Vec<u64>>, out: &mut Vec<u64>) {
    loop {
        let next = q.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let Some(x) = next else { break };
        out.push(x);
    }
}
