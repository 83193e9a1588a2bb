//! Building your own non-blocking structure from the raw primitives:
//! a Treiber-style stack written with LLX/SCX instead of bare CAS.
//!
//! The point of the exercise (paper §1): the designer thinks in terms of
//! *records and snapshots*, not ABA-prone word CAS. Note the one rule
//! the paper's §4.1 imposes and how the stack satisfies it exactly the
//! way the multiset's `Delete` does (Fig. 5(c)): a pop must not swing
//! `head` back to a pointer it held before, so it replaces the successor
//! with a *fresh copy* and finalizes both removed records. The empty
//! stack is a sentinel node rather than a null pointer for the same
//! reason — null would repeat.
//!
//! Run with `cargo run --example custom_record`.

use std::sync::Arc;

use llx_scx::{DataRecord, Domain, FieldId, LlxResult, ScxRequest};

/// Stack cell payload: a value, or the bottom-of-stack sentinel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    Bottom,
    Value(u64),
}

/// Stack node: immutable payload, one mutable field (`next`). The
/// bottom sentinel's `next` is unused (null).
type Node = DataRecord<1, Cell>;
const NEXT: usize = 0;

struct Stack {
    domain: Domain<1, Cell>,
    /// Entry point whose single field points at the top node.
    head: *const Node,
}

unsafe impl Send for Stack {}
unsafe impl Sync for Stack {}

impl Stack {
    fn new() -> Self {
        let domain = Domain::new();
        let bottom = domain.alloc(Cell::Bottom, [llx_scx::NULL]);
        let head = domain.alloc(Cell::Bottom, [llx_scx::pack_ptr(bottom)]);
        Stack { domain, head }
    }

    fn push(&self, value: u64) {
        loop {
            let guard = llx_scx::pin();
            let head = unsafe { &*self.head };
            let LlxResult::Snapshot(s) = self.domain.llx(head, &guard) else {
                continue;
            };
            // The new node points at the current top. Fresh allocation
            // keeps the no-ABA contract on the head pointer for free.
            let node = self.domain.alloc(Cell::Value(value), [s.value(NEXT)]);
            if self.domain.scx(
                ScxRequest::new(&[s], FieldId::new(0, NEXT), llx_scx::pack_ptr(node)),
                &guard,
            ) {
                return;
            }
            // SAFETY: never published.
            unsafe { self.domain.dealloc(node) };
        }
    }

    fn pop(&self) -> Option<u64> {
        loop {
            let guard = llx_scx::pin();
            let head = unsafe { &*self.head };
            let LlxResult::Snapshot(sh) = self.domain.llx(head, &guard) else {
                continue;
            };
            let top = unsafe { self.domain.deref(sh.value(NEXT), &guard) };
            let Cell::Value(value) = *top.immutable() else {
                return None; // bottom sentinel: empty stack
            };
            let LlxResult::Snapshot(st) = self.domain.llx(top, &guard) else {
                continue;
            };
            // Fig. 5(c) discipline: head must never revisit an old
            // pointer, so the successor is replaced by a fresh copy and
            // both top and successor are finalized.
            let succ = unsafe { self.domain.deref(st.value(NEXT), &guard) };
            let LlxResult::Snapshot(ss) = self.domain.llx(succ, &guard) else {
                continue;
            };
            let succ_copy = self.domain.alloc(*succ.immutable(), [ss.value(NEXT)]);
            if self.domain.scx(
                ScxRequest::new(
                    &[sh, st, ss],
                    FieldId::new(0, NEXT),
                    llx_scx::pack_ptr(succ_copy),
                )
                .finalize(1)
                .finalize(2),
                &guard,
            ) {
                // SAFETY: both unlinked by the committed SCX.
                unsafe {
                    self.domain.retire(top as *const Node, &guard);
                    self.domain.retire(succ as *const Node, &guard);
                }
                return Some(value);
            }
            // SAFETY: never published.
            unsafe { self.domain.dealloc(succ_copy) };
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: exclusive access during drop. Records live in
            // pooled blocks, so they leave through `dealloc`, not `Box`.
            let next = unsafe { (*cur).read(NEXT) } as usize as *const Node;
            unsafe { self.domain.dealloc(cur) };
            cur = next;
        }
    }
}

fn main() {
    let stack = Arc::new(Stack::new());

    // Concurrent pushes and pops; each popped value is recorded.
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let stack = Arc::clone(&stack);
        handles.push(std::thread::spawn(move || {
            let mut popped = Vec::new();
            for i in 0..10_000u64 {
                stack.push(t * 1_000_000 + i);
                if i % 2 == 0 {
                    if let Some(v) = stack.pop() {
                        popped.push(v);
                    }
                }
            }
            popped
        }));
    }
    let mut seen: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    // Drain the remainder.
    while let Some(v) = stack.pop() {
        seen.push(v);
    }
    assert_eq!(stack.pop(), None);

    // Every pushed value was popped exactly once.
    assert_eq!(seen.len(), 4 * 10_000);
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 4 * 10_000, "no duplicates, no losses");
    println!(
        "LLX/SCX stack: {} pushes, all popped exactly once",
        seen.len()
    );
}
