//! `utk-lint` — the workspace invariant checker.
//!
//! The paper's exactness guarantee survives in this repo as a set of
//! byte-identity contracts (deterministic BBS pop order, `server
//! batch ≡ utk batch`, epoch-keyed cache invalidation). The property
//! tests enforce them *after the fact*; this tool enforces the coding
//! disciplines behind them *at the source line*, the way clippy
//! `-D warnings` gates style:
//!
//! * **determinism** — `float-cmp` (no `partial_cmp`; comparators
//!   must be total) and `hash-iter` (no hash collections in
//!   wire-feeding modules);
//! * **panic-freedom** — `panic` (no `unwrap`/`expect`/`panic!`/
//!   `todo!` in library crates; the poisoned-lock `expect` idiom is
//!   allowlisted) and `index` (no bare indexing in server request
//!   paths);
//! * **concurrency** — `guard-blocking` (no lock guard held across
//!   `join()`/`recv()`/blocking I/O) and `lock-order` (acquisitions
//!   must respect `crates/lint/lock-order.toml`);
//! * **unsafe audit** — `safety-comment` (every `unsafe` carries a
//!   `// SAFETY:` comment);
//! * **test isolation** — `shared-temp-path` (no
//!   `temp_dir().join("<literal>")`: concurrent tests must not share
//!   a fixture file).
//!
//! Suppress a finding inline, reason mandatory:
//!
//! ```text
//! // utk-lint: allow(rule-id) -- reason
//! ```
//!
//! No dependencies, no full parse: a hand-rolled lexer
//! ([`lexer`]) plus token-stream rules ([`rules`]). The tool lints
//! itself (it is a workspace member like any other).

#![warn(missing_docs)]
// The 2026 unsafe audit found zero unsafe blocks workspace-wide;
// keep it that way. Any future unsafe must demote this to deny,
// carry a `// SAFETY:` comment (utk-lint enforces it), and say why
// no safe formulation works.
#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod selftest;
pub mod walk;
