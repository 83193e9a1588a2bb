//! The parsed structure-selection grammar: [`StructureSpec`].
//!
//! PR 8 redesigns the registry surface. The old API was a flat
//! `all_factories()` list plus ad-hoc name strings — fine while every
//! selectable structure was a bare registered backend, but a
//! *parameterized composite* like the range-partitioned
//! [`ShardedSet`](crate::ShardedSet) has no place in a flat name list:
//! `sharded(patricia, 8)` is a constructor call, not a name. So the
//! selection language becomes a real (tiny) grammar with one resolver:
//!
//! ```text
//! list  :=  spec ("," spec)*
//! spec  :=  name                          — a registered backend
//!        |  "sharded" "(" spec ")"        — shard count from LLX_SHARDS
//!        |  "sharded" "(" spec "," n ")"  — explicit shard count
//! ```
//!
//! Composites nest (`sharded(sharded(bst,2),2)` is legal, if odd), the
//! parser reports errors with **line and column**, and [`Display`]
//! round-trips: `spec.to_string()` re-parses to an equivalent spec and
//! is the label every harness table prints. Every selector — the
//! bench-harness `compare`/`scanwin` sweeps and the root
//! linearizability/stress/scan tests — goes through [`selected_specs`],
//! so setting `LLX_STRUCT=patricia,sharded(patricia,4)` retargets all
//! of them at once with zero harness changes; future composites
//! (NUMA-split, tiered, replicated) only extend the grammar.

use std::fmt;

use crate::sharded::ShardedSet;
use crate::ConcurrentOrderedSet;

/// Cap on the shard count a spec may request: partitions wider than
/// this stop being a scale-out story and start being a fork bomb.
pub const MAX_SPEC_SHARDS: usize = 1 << 12;

/// One parsed structure selection: a registered backend by name, or a
/// composite over further specs. Build the structure with
/// [`StructureSpec::build`]; print the canonical form with `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureSpec {
    /// A bare registered backend, e.g. `patricia`.
    Base(String),
    /// The range-partitioned facade over `shards` instances of `inner`:
    /// `sharded(inner, shards)`.
    Sharded {
        /// Spec of each shard's backend.
        inner: Box<StructureSpec>,
        /// Number of range partitions (≥ 1).
        shards: usize,
    },
}

/// A parse failure, located by 1-based line and column in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column (in characters) of the offending character.
    pub col: usize,
    /// What went wrong, with the expected alternatives.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec parse error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for SpecError {}

impl StructureSpec {
    /// Parse one spec; trailing input is an error.
    pub fn parse(input: &str) -> Result<StructureSpec, SpecError> {
        let mut p = Parser::new(input);
        let spec = p.spec()?;
        p.expect_end()?;
        Ok(spec)
    }

    /// Parse a comma-separated list of specs (the `LLX_STRUCT` form).
    /// Commas inside `sharded(...)` belong to the composite, not the
    /// list. An empty input is an error.
    pub fn parse_list(input: &str) -> Result<Vec<StructureSpec>, SpecError> {
        let mut p = Parser::new(input);
        let mut specs = vec![p.spec()?];
        loop {
            p.skip_ws();
            match p.peek() {
                None => break,
                Some(',') => {
                    p.bump();
                    specs.push(p.spec()?);
                }
                Some(c) => {
                    return Err(p.error(format!("expected ',' or end of input, found {c:?}")))
                }
            }
        }
        Ok(specs)
    }

    /// Construct one fresh, empty structure per this spec.
    ///
    /// # Panics
    ///
    /// Panics if a base name is not in the registry (parsing already
    /// validates names, so this only fires on hand-built specs).
    pub fn build(&self) -> Box<dyn ConcurrentOrderedSet> {
        match self {
            StructureSpec::Base(name) => crate::factory_by_name(name)(),
            StructureSpec::Sharded { inner, shards } => {
                Box::new(ShardedSet::from_spec(inner, *shards))
            }
        }
    }

    /// The innermost backend name (what the shards are made of).
    pub fn base_name(&self) -> &str {
        match self {
            StructureSpec::Base(name) => name,
            StructureSpec::Sharded { inner, .. } => inner.base_name(),
        }
    }
}

impl fmt::Display for StructureSpec {
    /// The canonical form: no interior whitespace (one `awk` token in
    /// table rows), explicit shard counts. Re-parses to an equal spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureSpec::Base(name) => write!(f, "{name}"),
            StructureSpec::Sharded { inner, shards } => write!(f, "sharded({inner},{shards})"),
        }
    }
}

impl std::str::FromStr for StructureSpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, SpecError> {
        StructureSpec::parse(s)
    }
}

/// The structures the generic harnesses run against: the
/// `LLX_STRUCT` list when set, every registered bare backend otherwise.
///
/// # Panics
///
/// Panics (with the parse error's line/column) on a malformed
/// `LLX_STRUCT` — a typo'd selection must fail the run, not silently
/// shrink it.
pub fn selected_specs() -> Vec<StructureSpec> {
    match workloads::knobs::struct_spec() {
        Some(list) => {
            StructureSpec::parse_list(&list).unwrap_or_else(|e| panic!("LLX_STRUCT={list:?}: {e}"))
        }
        None => crate::backend_names()
            .map(|name| StructureSpec::Base(name.to_string()))
            .collect(),
    }
}

/// Character-level recursive-descent parser with line/column tracking.
struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unconsumed character.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += c.len_utf8();
        }
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.bump();
        }
    }

    /// An error pointing at the current position.
    fn error(&self, msg: impl Into<String>) -> SpecError {
        self.error_at(self.pos, msg)
    }

    fn error_at(&self, pos: usize, msg: impl Into<String>) -> SpecError {
        let upto = &self.src[..pos.min(self.src.len())];
        let line = upto.matches('\n').count() + 1;
        let col = upto.rsplit('\n').next().unwrap_or("").chars().count() + 1;
        SpecError {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, c: char) -> Result<(), SpecError> {
        self.skip_ws();
        match self.peek() {
            Some(got) if got == c => {
                self.bump();
                Ok(())
            }
            Some(got) => Err(self.error(format!("expected {c:?}, found {got:?}"))),
            None => Err(self.error(format!("expected {c:?}, found end of input"))),
        }
    }

    fn expect_end(&mut self) -> Result<(), SpecError> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(c) => Err(self.error(format!("expected end of input, found {c:?}"))),
        }
    }

    /// `[A-Za-z0-9_-]+` — the alphabet of registry names.
    fn ident(&mut self) -> Result<&'a str, SpecError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            self.bump();
        }
        if start == self.pos {
            return Err(match self.peek() {
                Some(c) => self.error(format!("expected a structure name, found {c:?}")),
                None => self.error("expected a structure name, found end of input"),
            });
        }
        Ok(&self.src[start..self.pos])
    }

    fn integer(&mut self) -> Result<usize, SpecError> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if start == self.pos {
            return Err(match self.peek() {
                Some(c) => self.error(format!("expected a shard count, found {c:?}")),
                None => self.error("expected a shard count, found end of input"),
            });
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.error_at(start, "shard count out of range"))
    }

    fn spec(&mut self) -> Result<StructureSpec, SpecError> {
        self.skip_ws();
        let name_pos = self.pos;
        let name = self.ident()?;
        self.skip_ws();
        if name == "sharded" && self.peek() == Some('(') {
            self.bump(); // '('
            let inner = self.spec()?;
            self.skip_ws();
            let (shards, count_pos) = match self.peek() {
                Some(',') => {
                    self.bump();
                    self.skip_ws();
                    let pos = self.pos;
                    (self.integer()?, pos)
                }
                // `sharded(x)`: resolve the count from LLX_SHARDS *at
                // parse time*, so Display prints a concrete count and
                // round-trips independent of later env changes.
                _ => (workloads::knobs::shards() as usize, self.pos),
            };
            self.expect(')')?;
            if shards == 0 {
                return Err(self.error_at(count_pos, "shard count must be at least 1"));
            }
            if shards > MAX_SPEC_SHARDS {
                return Err(self.error_at(
                    count_pos,
                    format!("shard count must be at most {MAX_SPEC_SHARDS}"),
                ));
            }
            Ok(StructureSpec::Sharded {
                inner: Box::new(inner),
                shards,
            })
        } else {
            if !crate::backend_names().any(|known| known == name) {
                let known: Vec<&str> = crate::backend_names().collect();
                return Err(self.error_at(
                    name_pos,
                    format!("unknown structure {name:?} (expected one of {known:?}, or sharded(spec[,n]))"),
                ));
            }
            Ok(StructureSpec::Base(name.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_parse_and_round_trip() {
        for name in crate::backend_names() {
            let spec = StructureSpec::parse(name).unwrap();
            assert_eq!(spec, StructureSpec::Base(name.to_string()));
            assert_eq!(spec.to_string(), name);
            assert_eq!(spec.base_name(), name);
        }
    }

    #[test]
    fn sharded_specs_parse_print_and_re_parse() {
        let spec = StructureSpec::parse("sharded(patricia, 8)").unwrap();
        assert_eq!(
            spec,
            StructureSpec::Sharded {
                inner: Box::new(StructureSpec::Base("patricia".into())),
                shards: 8,
            }
        );
        // Canonical form: no spaces, explicit count; re-parses equal.
        assert_eq!(spec.to_string(), "sharded(patricia,8)");
        assert_eq!(StructureSpec::parse(&spec.to_string()).unwrap(), spec);
        assert_eq!(spec.base_name(), "patricia");

        let nested = StructureSpec::parse("sharded( sharded(bst, 2) , 3 )").unwrap();
        assert_eq!(nested.to_string(), "sharded(sharded(bst,2),3)");
        assert_eq!(nested.base_name(), "bst");
    }

    #[test]
    fn default_shard_count_is_resolved_at_parse_time() {
        // LLX_SHARDS is not set in the test environment, so the
        // documented default (4) is what `sharded(x)` resolves to —
        // and Display prints it concretely.
        if std::env::var("LLX_SHARDS").is_err() {
            let spec = StructureSpec::parse("sharded(chromatic)").unwrap();
            assert_eq!(spec.to_string(), "sharded(chromatic,4)");
        }
    }

    #[test]
    fn lists_split_on_toplevel_commas_only() {
        let specs = StructureSpec::parse_list("patricia, sharded(bst,2), scx-multiset").unwrap();
        assert_eq!(
            specs.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            vec!["patricia", "sharded(bst,2)", "scx-multiset"]
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = StructureSpec::parse("sharded(patricia,0)").unwrap_err();
        assert_eq!((err.line, err.col), (1, 18), "{err}");
        assert!(err.msg.contains("at least 1"), "{err}");

        let err = StructureSpec::parse("nosuch").unwrap_err();
        assert_eq!((err.line, err.col), (1, 1), "{err}");
        assert!(err.msg.contains("unknown structure"), "{err}");
        assert!(err.to_string().contains("1:1"), "{err}");

        let err = StructureSpec::parse("sharded(patricia,8").unwrap_err();
        assert!(err.msg.contains("')'"), "{err}");

        let err = StructureSpec::parse("sharded(patricia,8) trailing").unwrap_err();
        assert!(err.msg.contains("end of input"), "{err}");

        // Multi-line input locates the error on the right line.
        let err = StructureSpec::parse_list("patricia,\n sharded(typo,2)").unwrap_err();
        assert_eq!((err.line, err.col), (2, 10), "{err}");

        let err = StructureSpec::parse("sharded(patricia,99999999999999999999)").unwrap_err();
        assert!(err.msg.contains("out of range"), "{err}");

        let err =
            StructureSpec::parse(&format!("sharded(bst,{})", MAX_SPEC_SHARDS + 1)).unwrap_err();
        assert!(err.msg.contains("at most"), "{err}");

        let err = StructureSpec::parse_list("patricia,,bst").unwrap_err();
        assert!(err.msg.contains("structure name"), "{err}");
    }

    #[test]
    fn selected_specs_defaults_to_the_whole_registry() {
        if std::env::var("LLX_STRUCT").is_err() {
            let names: Vec<String> = selected_specs().iter().map(|s| s.to_string()).collect();
            let registry: Vec<String> = crate::backend_names().map(String::from).collect();
            assert_eq!(names, registry);
        }
    }

    #[test]
    fn built_structures_carry_their_spec_as_name() {
        let spec = StructureSpec::parse("sharded(scx-multiset,2)").unwrap();
        let set = spec.build();
        assert_eq!(set.name(), "sharded(scx-multiset,2)");
        assert!(set.counting(), "inherits the backend's semantics");
        let bare = StructureSpec::parse("bst").unwrap().build();
        assert_eq!(bare.name(), "bst");
    }
}
