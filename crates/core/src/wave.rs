//! The one fan-out step behind every read fan-out in the core: discovery
//! probe waves, federated build and ship waves, and the `members`
//! lookups behind coalition and topic scopes.
//!
//! A wave is a slice of independent items, each one remote call. The
//! caller's `batch` sends a slice of them pipelined from the calling
//! thread (through [`crate::Federation::invoke_all`]) and returns one
//! result per item, in item order. [`batched`] cuts the wave into
//! slices of at most `width` items and spawns no thread, so a caller
//! that merges the results in order produces the same outcome whatever
//! the width — `width = 1` is the serial reference.

/// Run `items` through `batch` in slices of at most `width` (0 counts
/// as 1), one slice after another in item order, and return the
/// results in item order; then re-run every item whose result
/// `retry_if` flags — once, alone, after the last slice.
///
/// The re-run exists for circuit breakers: a half-open breaker admits
/// exactly one call, so batch-mates bound for the same recovering
/// endpoint can be rejected while the admitted call goes on to close
/// the breaker — a race a serial walk never loses. Re-running the
/// rejected items after the wave settles lets a breaker the wave healed
/// admit them; one that is still open rejects again instantly, without
/// touching the wire.
pub(crate) fn batched<I, R>(
    items: &[I],
    width: usize,
    mut batch: impl FnMut(&[I]) -> Vec<R>,
    retry_if: impl Fn(&R) -> bool,
) -> Vec<R> {
    let mut results: Vec<R> = items.chunks(width.max(1)).flat_map(&mut batch).collect();
    for (item, result) in items.iter().zip(&mut results) {
        if retry_if(result) {
            *result = batch(std::slice::from_ref(item))
                .pop()
                .expect("one result per item");
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn never<R>(_: &R) -> bool {
        false
    }

    /// Run `items` through [`batched`], recording every slice `batch`
    /// was handed; each item's result is `(item, attempt)`.
    fn record(
        items: &[u32],
        width: usize,
        retry_if: impl Fn(&(u32, usize)) -> bool,
    ) -> (Vec<(u32, usize)>, Vec<Vec<u32>>) {
        let mut slices: Vec<Vec<u32>> = Vec::new();
        let out = batched(
            items,
            width,
            |slice| {
                slices.push(slice.to_vec());
                slice
                    .iter()
                    .map(|&i| (i, slices.iter().flatten().filter(|&&j| j == i).count() - 1))
                    .collect()
            },
            retry_if,
        );
        (out, slices)
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u32> = (0..7).rev().collect();
        let (out, _) = record(&items, 3, never);
        let ids: Vec<u32> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, items);
        assert!(out.iter().all(|&(_, attempt)| attempt == 0));
    }

    #[test]
    fn slices_hold_at_most_width_items_and_run_in_item_order() {
        let items: Vec<u32> = (0..10).collect();
        for width in [1, 3, 4, 10, 64] {
            let (_, slices) = record(&items, width, never);
            assert!(slices.iter().all(|s| !s.is_empty() && s.len() <= width));
            assert_eq!(slices.concat(), items, "width {width}");
            assert_eq!(slices.len(), items.len().div_ceil(width), "width {width}");
        }
        let (out, slices) = record(&[], 8, never);
        assert!(
            out.is_empty() && slices.is_empty(),
            "an empty wave sends nothing"
        );
    }

    #[test]
    fn flagged_items_rerun_once_alone_after_the_last_slice() {
        let items: Vec<u32> = (0..8).collect();
        // Flag odd items on every attempt, so a second re-run would
        // show up as a third slice holding the same item.
        let (out, slices) = record(&items, 3, |&(i, _)| i % 2 == 1);
        let expected: Vec<(u32, usize)> = items.iter().map(|&i| (i, (i % 2) as usize)).collect();
        assert_eq!(out, expected, "odd items carry their second result");
        assert_eq!(slices[..3].concat(), items, "the wave first, whole");
        assert_eq!(
            slices[3..].to_vec(),
            vec![vec![1], vec![3], vec![5], vec![7]],
            "then one re-run per flagged item, alone, in item order"
        );
    }

    #[test]
    fn width_zero_behaves_as_width_one() {
        let items: Vec<u32> = (0..4).collect();
        assert_eq!(record(&items, 0, never), record(&items, 1, never));
        let (_, slices) = record(&items, 0, never);
        assert_eq!(slices, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_panic_on_the_calling_thread_propagates() {
        batched(&[0], 4, |_| -> Vec<()> { panic!("boom") }, never);
    }
}
