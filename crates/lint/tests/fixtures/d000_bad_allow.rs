//! Fixture: allow-comment hygiene violations (all three D000 shapes, plus
//! allows naming retired rules, which count as unknown).

use std::collections::HashMap; // lint: allow(D003)

pub fn stale() {} // lint: allow(D001) — nothing on this line needs an allow

pub fn unknown() {} // lint: allow(D999) — no such rule exists

pub fn retired_dataflow() {} // lint: allow(D015) — D015 is retired; this allow must not parse

pub fn retired_schema() {} // lint: allow(D012) — D012 is retired; this allow must not parse

pub fn retired_counters() {} // lint: allow(D010) — D010 is retired; this allow must not parse

pub fn user(m: &HashMap<u32, u32>) -> usize {
    m.len()
}
