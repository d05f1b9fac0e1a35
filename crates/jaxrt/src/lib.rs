//! # jax-rs
//!
//! A JAX-like baseline: immutable functional arrays with tape-based
//! reverse-mode automatic differentiation.  This crate substitutes for the
//! JAX JIT comparator of the paper's evaluation ("Layout" in `README.md`); it
//! deliberately reproduces the overheads Section V-B attributes to JAX on
//! scientific codes — array immutability, dynamic slicing with clamped
//! bounds, per-call full-array materialisation, and a store-all tape.

pub mod tape;

pub use tape::{Context, Tape, Var};
