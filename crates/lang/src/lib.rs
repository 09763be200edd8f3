//! A textual CFSM specification language.
//!
//! POLIS accepted specifications through Esterel (translated into its
//! SHIFT intermediate format, see reference \[36\]); we provide the
//! equivalent front door: a small textual language with explicit states
//! and transitions, compiled to [`polis_cfsm::Cfsm`] networks. The
//! paper's Fig. 1 module reads:
//!
//! ```text
//! module simple {
//!     input c : u8;
//!     output y;
//!     var a : u8 := 0;
//!     state awaiting;
//!     from awaiting to awaiting when c && [a == ?c] do { a := 0; emit y; }
//!     from awaiting to awaiting when c && ![a == ?c] do { a := a + 1; }
//! }
//! ```
//!
//! * presence atoms are bare input names (`c`), data tests are bracketed
//!   boolean expressions (`[a == ?c]`), and `?c` reads the value of a
//!   valued event (Esterel's notation);
//! * transitions from a state are prioritized in source order;
//! * the first declared state is the reset state;
//! * several `module`s in one source file form a [`polis_cfsm::Network`].
//!
//! # Examples
//!
//! ```
//! use polis_lang::parse_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = parse_module(
//!     "module blink { input tick; output led; state s;
//!       from s to s when tick do { emit led; } }",
//! )?;
//! assert_eq!(m.name(), "blink");
//! assert_eq!(m.num_transitions(), 1);
//! # Ok(())
//! # }
//! ```

mod lexer;
mod parser;
mod printer;
pub mod prop;

pub use parser::{parse_module, parse_network, parse_spec, ParseError};
pub use printer::{emit_network_source, emit_source};
pub use prop::{
    emit_properties_source, emit_spec_source, PropExpr, PropKind, Property, Span, Spec,
};
