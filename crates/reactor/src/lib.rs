//! `bea-reactor`: dependency-free readiness polling for the serving layer.
//!
//! The build environment has no registry access, so this crate provides
//! the one primitive `std` withholds that event-driven serving needs: a
//! readiness multiplexer. On Linux it wraps the raw `epoll` syscalls
//! through hand-declared FFI shims ([`sys`]) — no `libc` crate, just the
//! symbols `std` already links — behind a fully safe [`Poller`] facade.
//! One thread registers any number of non-blocking sockets and sleeps in
//! [`Poller::wait`] until some of them become readable or writable,
//! which is what lets `bea-serve` multiplex thousands of connections
//! without a thread per connection.
//!
//! Everything above [`sys`] is `#![deny(unsafe_code)]`-clean: the unsafe
//! surface is four syscall wrappers, each a one-line FFI call with its
//! invariants stated at the call site.
//!
//! Off Linux the crate still compiles; constructing a [`Poller`] reports
//! [`std::io::ErrorKind::Unsupported`], which the serving layer passes
//! on: serving is Linux-only.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod poller;
#[cfg(target_os = "linux")]
pub mod sys;

pub use poller::{Event, Interest, Poller, Token};
