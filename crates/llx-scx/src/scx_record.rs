//! SCX-records (paper Fig. 1): one SCX's `V`, `R`, `fld`, `old`, `new`
//! and `infoFields`, as the process that runs `Help` sees them.
//!
//! The shared copy lives in the owner's reused
//! [`Descriptor`](crate::header::Descriptor). An [`ScxRecord`] is a
//! private copy: the owner builds it from its request and publishes it
//! ([`ScxRecord::publish`]); a helper copies it out of the descriptor
//! ([`ScxRecord::load`]). Neither is ever shared, so nothing here needs
//! reclamation.

use crate::handle::ScxRequest;
use crate::header::{self, Descriptor, ScxState, MAX_V};
use crate::record::Head;
use crate::sync::{AtomicU64, Ordering::SeqCst};

/// One SCX's fields, private to the process helping it.
#[derive(Debug)]
pub(crate) struct ScxRecord {
    pub(crate) desc: &'static Descriptor,
    pub(crate) seq: u64,
    /// The info word `(tid, seq)` its freezing CASes install.
    pub(crate) word: u64,
    /// Whether this process invoked the SCX (and so alone may move
    /// `seq`).
    pub(crate) owner: bool,
    len: usize,
    /// Bitmask over `v`: bit `i` set means `v[i]` is in `R`.
    finalize_mask: u64,
    pub(crate) fld: *const AtomicU64,
    pub(crate) old: u64,
    pub(crate) new: u64,
    v: [*const Head; MAX_V],
    info_fields: [u64; MAX_V],
}

impl ScxRecord {
    /// Fig. 4 lines 19–21 for SCX `seq` of the owner `tid`: write the
    /// SCX's fields into its descriptor, then publish `seq`.
    pub(crate) fn publish<const M: usize, I>(
        tid: usize,
        seq: u64,
        req: &ScxRequest<'_, '_, M, I>,
    ) -> Self {
        let desc = header::descriptor(tid);
        let target = &req.v[req.fld.record];
        let mut u = ScxRecord {
            desc,
            seq,
            word: header::info_word(tid, seq),
            owner: true,
            len: req.v.len(),
            finalize_mask: req.finalize_mask,
            fld: &target.record.mutable[req.fld.field],
            old: target.values[req.fld.field],
            new: req.new,
            v: [std::ptr::null(); MAX_V],
            info_fields: [0; MAX_V],
        };
        for (i, l) in req.v.iter().enumerate() {
            u.v[i] = &l.record.head;
            u.info_fields[i] = l.info;
        }
        // ord: SC descriptor field write, before the publish below
        let put = |field: &AtomicU64, value: u64| field.store(value, SeqCst);
        put(&desc.len, u.len as u64);
        put(&desc.finalize_mask, u.finalize_mask);
        put(&desc.fld, u.fld as u64);
        put(&desc.old, u.old);
        put(&desc.new, u.new);
        for i in 0..u.len {
            put(&desc.v[i], u.v[i] as u64);
            put(&desc.info_fields[i], u.info_fields[i]);
        }
        desc.publish(seq);
        u
    }

    /// A helper's copy of the SCX a non-dummy info word names, or its
    /// state if it is no longer in progress once copied.
    pub(crate) fn load(word: u64) -> Result<Self, ScxState> {
        let (d, seq) = header::unpack(word);
        let (before, state) = d.state_word(seq);
        if state != ScxState::InProgress {
            return Err(state);
        }
        // The owner rewrites these only after the SCX has finished, so
        // they may be torn; `min` keeps a torn `len` in bounds until the
        // re-check below discards the copy.
        let get = |field: &AtomicU64| field.load(SeqCst); // ord: SC descriptor field copy
        let len = (get(&d.len) as usize).min(MAX_V);
        let mut u = ScxRecord {
            desc: d,
            seq,
            word,
            owner: false,
            len,
            finalize_mask: get(&d.finalize_mask),
            fld: get(&d.fld) as *const AtomicU64,
            old: get(&d.old),
            new: get(&d.new),
            v: [std::ptr::null(); MAX_V],
            info_fields: [0; MAX_V],
        };
        for i in 0..len {
            u.v[i] = get(&d.v[i]) as *const Head;
            u.info_fields[i] = get(&d.info_fields[i]);
        }
        // Model-checker regression gate B: without this re-check, a copy
        // torn by the owner's next SCX is helped.
        if !cfg!(llx_model_bugs) {
            let (after, state) = d.state_word(seq);
            if after != before {
                return Err(state);
            }
        }
        Ok(u)
    }

    /// `V`'s records with their linked `info` words.
    pub(crate) fn v(&self) -> impl Iterator<Item = (*const Head, u64)> + '_ {
        (0..self.len).map(|i| (self.v[i], self.info_fields[i]))
    }

    /// Whether `v[i]` is in the finalize sequence `R`.
    #[inline]
    pub(crate) fn finalizes(&self, i: usize) -> bool {
        self.finalize_mask & (1u64 << i) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_at_offset_zero() {
        // `v` holds record addresses as `*const Head`: the head must be
        // the first field of the repr(C) record layout.
        assert_eq!(std::mem::offset_of!(crate::DataRecord<2, u64>, head), 0);
    }

    #[test]
    fn finalize_mask_indexing() {
        // Only read, so the test thread's own descriptor serves.
        let (desc, word) =
            header::with_own(|tid| (header::descriptor(tid), header::info_word(tid, 1)));
        let rec = ScxRecord {
            desc,
            seq: 1,
            word,
            owner: false,
            len: 3,
            finalize_mask: 0b101,
            fld: std::ptr::null(),
            old: 0,
            new: 0,
            v: [std::ptr::null(); MAX_V],
            info_fields: [0; MAX_V],
        };
        assert!(rec.finalizes(0));
        assert!(!rec.finalizes(1));
        assert!(rec.finalizes(2));
        assert!(!rec.finalizes(3));
        assert_eq!(rec.v().count(), 3);
    }
}
