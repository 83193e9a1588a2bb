//! Non-blocking trees built from LLX/SCX.
//!
//! The paper's §6 points at its companion technique paper (Brown, Ellen
//! & Ruppert, "A general technique for non-blocking trees", PPoPP 2014)
//! for the headline application of LLX/SCX: provably correct,
//! non-blocking *down-trees* whose updates each replace a constant-size
//! neighborhood with one SCX. This crate implements both data structures
//! from that line of work:
//!
//! * [`Bst`] — the unbalanced leaf-oriented binary search tree (one SCX
//!   per update, no rebalancing);
//! * [`ChromaticTree`] — the relaxed-balance red-black tree whose
//!   rebalancing transformations are also single SCXs, giving `O(log n)`
//!   height at quiescence;
//! * [`PatriciaTrie`] — a binary Patricia trie over `u64` keys (the §2
//!   sibling application \[15\]), with structurally bounded depth and no
//!   rebalancing.
//!
//! # Example
//!
//! ```
//! use trees::ChromaticTree;
//!
//! let tree: ChromaticTree<u64, &str> = ChromaticTree::new();
//! assert!(tree.insert(2, "two"));
//! assert!(tree.insert(1, "one"));
//! assert!(!tree.insert(2, "dup"));
//! assert_eq!(tree.get(2), Some("two"));
//! assert_eq!(tree.remove(1), Some("one"));
//! assert_eq!(tree.to_vec(), vec![(2, "two")]);
//! tree.check_balanced().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bst;
mod chromatic;
mod node;
mod patricia;
mod scan;
pub mod validate;

pub use bst::Bst;
pub use chromatic::ChromaticTree;
pub use node::{NodeInfo, TreeKey};
pub use patricia::PatriciaTrie;
