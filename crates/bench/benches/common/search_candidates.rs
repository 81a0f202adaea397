//! The mechanism search's first candidates under its default
//! configuration's shape: the root forest's centres, then the centres of
//! 4 children per box, boxes split breadth-first. Shared by the `ifd` and
//! `ess` benches.

use dispersal_core::policy::TableCongestion;
use dispersal_search::mech_space::{root_boxes, ParamBox};

/// The first `n` candidates at `k` players.
pub fn search_candidates(k: usize, n: usize) -> Vec<TableCongestion> {
    let policy = |bx: &ParamBox| {
        let centre = bx.center();
        TableCongestion::new(centre.table(k).ok()?, centre.spec()).ok()
    };
    let mut boxes = root_boxes(k).unwrap();
    let mut candidates: Vec<TableCongestion> = boxes.iter().filter_map(policy).collect();
    let mut next = 0;
    while candidates.len() < n && next < boxes.len() {
        let children = boxes[next].split(4, k).unwrap();
        next += 1;
        candidates.extend(children.iter().filter_map(policy));
        boxes.extend(children);
    }
    candidates.truncate(n);
    candidates
}
