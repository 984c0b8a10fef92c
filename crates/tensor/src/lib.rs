//! Minimal pure-Rust tensor and neural-network primitives.
//!
//! This crate is the computational substrate for the butterfly-effect-attack
//! workspace. The paper evaluates its attack against two deep object
//! detectors (YOLOv5 and DETR); since no pretrained weights or GPU framework
//! is available in this reproduction, the detectors in `bea-detect` are
//! built from scratch on top of the primitives here:
//!
//! * [`Matrix`] — a dense row-major 2-D tensor with BLAS-free matmul,
//! * [`FeatureMap`] — a dense C×H×W 3-D tensor used for images and
//!   convolutional feature maps,
//! * [`Conv2d`], [`MaxPool2d`], [`AvgPool2d`] — convolutional layers,
//! * [`Linear`], [`LayerNorm`] — fully-connected layers,
//! * [`MultiHeadAttention`] — the global token-mixing primitive that makes
//!   the DETR-like detector susceptible to butterfly effects,
//! * activation functions and reductions ([`activation`], [`stats`]),
//! * deterministic seeded weight initialisation ([`init`]),
//! * register-blocked fast kernels behind a [`KernelPolicy`] dispatch and
//!   the golden differential harness proving them exact ([`gemm`],
//!   [`golden`]), with explicit SIMD lanes ([`simd`]) and a scoped
//!   worker-thread fan-out ([`threads`]) — all `==`-identical to the
//!   reference loops.
//!
//! Everything is `f32`, row-major, and deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use bea_tensor::{Matrix, FeatureMap};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b).unwrap(), a);
//!
//! let map = FeatureMap::zeros(3, 4, 5);
//! assert_eq!(map.shape(), (3, 4, 5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod attention;
pub mod autodiff;
pub mod conv;
pub mod dirty;
pub mod error;
pub mod gemm;
pub mod golden;
pub mod init;
pub mod linear;
pub mod matrix;
pub mod norm;
pub mod pack;
pub mod pool;
pub mod scratch;
pub mod simd;
pub mod stats;
pub mod tape;
pub mod tensor3;
pub mod threads;

pub use attention::MultiHeadAttention;
pub use conv::Conv2d;
pub use dirty::DirtyRect;
pub use error::{Result, TensorError};
pub use gemm::KernelPolicy;
pub use init::WeightInit;
pub use linear::{LayerNorm, Linear, WeightGuard};
pub use matrix::Matrix;
pub use pack::{matmul_nt_packed, PackedWeights};
pub use pool::{AvgPool2d, MaxPool2d};
pub use scratch::{insertion_sort_by, PoolVec, ScratchArena, ScratchGuard, ScratchStats};
pub use tape::{tapes_created, Gradients, Tape, Var};
pub use tensor3::FeatureMap;
