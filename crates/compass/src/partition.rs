//! Load-balanced partitioning of cores across simulator threads.
//!
//! Compass "uses meticulous load-balancing" (paper Section III-B). The
//! simulation cost of a core scales with its synaptic traffic, so the
//! partitioner splits the core array into contiguous ranges of
//! approximately equal *weight* rather than equal *count*. Contiguity
//! preserves cache locality and lets thread ownership be resolved with a
//! binary search over split offsets.

/// Compute split points for dividing `weights.len()` items into `n`
/// contiguous ranges of near-equal total weight.
///
/// Returns the start index of each range; ranges are
/// `[starts[k], starts[k+1])` with an implicit final end of
/// `weights.len()`. Every range is non-empty when `n <= weights.len()`;
/// otherwise `n` is clamped down.
pub fn weighted_split_points(weights: &[u64], n: usize) -> Vec<usize> {
    let n = n.clamp(1, weights.len().max(1));
    let total: u64 = weights.iter().sum();
    if weights.is_empty() {
        return vec![0];
    }
    let mut starts = Vec::with_capacity(n);
    starts.push(0);
    let mut acc: u64 = 0;
    let mut next_boundary = 1u64;
    for (i, &w) in weights.iter().enumerate() {
        if starts.len() >= n {
            break;
        }
        acc += w;
        // Place the next boundary after enough cumulative weight — but
        // never so late that the remaining ranges can't all be non-empty.
        let target = total * next_boundary / n as u64;
        let items_left = weights.len() - (i + 1);
        let ranges_left = n - starts.len();
        if (acc >= target && i + 1 < weights.len()) || items_left == ranges_left {
            starts.push(i + 1);
            next_boundary += 1;
        }
    }
    while starts.len() < n {
        // Degenerate all-zero-weight tail: split remaining evenly.
        let last = *starts.last().unwrap();
        starts.push((last + 1).min(weights.len() - 1));
    }
    starts
}

/// Split a network's cores into at most `n` contiguous ranges of
/// near-equal load, weighting each core by a fixed per-core cost plus its
/// active synapse count. Returns the range starts, as
/// [`weighted_split_points`] does.
pub fn split_cores(net: &tn_core::Network, n: usize) -> Vec<usize> {
    let weights: Vec<u64> = net
        .cores()
        .iter()
        .map(|c| 64 + c.config().crossbar.active_synapses() as u64)
        .collect();
    weighted_split_points(&weights, n)
}

/// Find which range an index belongs to (binary search over start
/// offsets).
#[inline]
pub fn owner_of(starts: &[usize], index: usize) -> usize {
    match starts.binary_search(&index) {
        Ok(k) => k,
        Err(k) => k - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range_weights(weights: &[u64], starts: &[usize]) -> Vec<u64> {
        let mut out = Vec::new();
        for (k, &s) in starts.iter().enumerate() {
            let e = starts.get(k + 1).copied().unwrap_or(weights.len());
            out.push(weights[s..e].iter().sum());
        }
        out
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let w = vec![1u64; 100];
        let starts = weighted_split_points(&w, 4);
        assert_eq!(starts, vec![0, 25, 50, 75]);
    }

    #[test]
    fn skewed_weights_balance() {
        // First 10 items carry 10× the weight of the rest.
        let mut w = vec![10u64; 10];
        w.extend(std::iter::repeat_n(1, 90));
        let starts = weighted_split_points(&w, 2);
        let rw = range_weights(&w, &starts);
        let total: u64 = w.iter().sum();
        assert!(rw[0] >= total / 3 && rw[0] <= 2 * total / 3, "{rw:?}");
    }

    #[test]
    fn more_ranges_than_items_clamps() {
        let w = vec![1u64, 2, 3];
        let starts = weighted_split_points(&w, 10);
        assert_eq!(starts.len(), 3);
        assert_eq!(starts, vec![0, 1, 2]);
    }

    #[test]
    fn all_ranges_nonempty() {
        let w = vec![100u64, 0, 0, 0, 0, 0, 0, 1];
        let starts = weighted_split_points(&w, 4);
        assert_eq!(starts.len(), 4);
        for k in 1..starts.len() {
            assert!(starts[k] > starts[k - 1], "{starts:?}");
        }
        assert!(*starts.last().unwrap() < w.len());
    }

    #[test]
    fn owner_lookup() {
        let starts = vec![0usize, 25, 50, 75];
        assert_eq!(owner_of(&starts, 0), 0);
        assert_eq!(owner_of(&starts, 24), 0);
        assert_eq!(owner_of(&starts, 25), 1);
        assert_eq!(owner_of(&starts, 99), 3);
    }

    #[test]
    fn single_range() {
        let w = vec![5u64; 7];
        assert_eq!(weighted_split_points(&w, 1), vec![0]);
    }
}
