//! Shared test support: reference implementations the differential tests
//! replay against.

// Each test binary uses a different subset of the reference API.
#![allow(dead_code)]

pub mod reference_freelist;
