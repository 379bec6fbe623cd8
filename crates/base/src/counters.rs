//! Counter sets declared once.
//!
//! Every layer of the stack keeps a handful of lock-free statistics
//! (requests, bytes, cache hits, rows scanned). [`counter_set!`] turns
//! one `kind name "label"` line per counter into everything a reader
//! of those statistics needs — the atomic struct the owning layer
//! bumps, a `Copy` snapshot, a before/after delta and an ordered
//! `(label, value)` listing a trace can render — so a counter cannot
//! be recorded without also being visible, and its name is spelled in
//! exactly one place.

/// Declare a set of `AtomicU64` statistics and derive its snapshot.
///
/// ```
/// webfindit_base::counter_set! {
///     /// Cache statistics.
///     pub struct CacheMetrics => CacheSnapshot {
///         /// Lookups answered from the cache.
///         counter hits "cache hits",
///         /// Entries currently resident.
///         gauge resident "resident",
///         /// Most entries ever resident at once.
///         peak high_water "high water",
///     }
/// }
/// let m = CacheMetrics::default();
/// m.hits.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// let labelled: Vec<_> = m.snapshot().iter().collect();
/// assert_eq!(labelled[0], ("cache hits", 2));
/// ```
///
/// The kind decides how `since` compares two snapshots:
///
/// * `counter` — only ever incremented; the delta is the increments in
///   between.
/// * `gauge` — moves both ways; the delta is the net rise, zero when
///   the level fell.
/// * `peak` — a high-water mark kept with `fetch_max`; two maxima do
///   not subtract, so the delta carries the later mark.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Set:ident => $Snap:ident {
            $( $(#[$fmeta:meta])* $kind:ident $field:ident $label:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $Set {
            $( $(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64, )+
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($Set), "`].")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $vis struct $Snap {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $Set {
            /// Capture the current values.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        impl $Snap {
            /// What happened between `earlier` and `self`, by each
            /// statistic's declared kind. Saturates for every kind, so
            /// it never panics or wraps — not even when the owner was
            /// replaced by a fresh, zeroed set between the two
            /// snapshots (an ORB restarted by a chaos plan).
            pub fn since(&self, earlier: &$Snap) -> $Snap {
                $Snap {
                    $( $field: $crate::counter_set!(@since $kind self.$field, earlier.$field), )+
                }
            }

            /// Every statistic as `(label, value)`, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [ $( ($label, self.$field) ),+ ].into_iter()
            }
        }
    };
    (@since counter $later:expr, $earlier:expr) => { $later.saturating_sub($earlier) };
    (@since gauge $later:expr, $earlier:expr) => { $later.saturating_sub($earlier) };
    (@since peak $later:expr, $earlier:expr) => { $later };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Relaxed;

    counter_set! {
        /// One statistic of each kind.
        struct KindMetrics => KindSnapshot {
            /// A counter.
            counter events "events",
            /// A gauge.
            gauge level "level",
            /// A peak.
            peak widest "widest",
        }
    }

    #[test]
    fn each_kind_obeys_its_since_rule() {
        // (earlier, later, expected delta) per kind.
        let cases = [
            ((3, 3, 3), (5, 5, 5), (2, 2, 5)),
            // A falling gauge saturates; an unmoved peak is still the peak.
            ((3, 3, 7), (3, 1, 7), (0, 0, 7)),
            // The owner restarted from zero in between: nothing wraps.
            ((9, 9, 9), (1, 0, 2), (0, 0, 2)),
        ];
        for (earlier, later, delta) in cases {
            let snap = |(events, level, widest)| KindSnapshot {
                events,
                level,
                widest,
            };
            assert_eq!(snap(later).since(&snap(earlier)), snap(delta));
        }
    }

    #[test]
    fn snapshot_and_listing_follow_the_declaration() {
        let m = KindMetrics::default();
        m.events.fetch_add(4, Relaxed);
        m.level.fetch_add(3, Relaxed);
        m.level.fetch_sub(2, Relaxed);
        for width in [3, 7, 2] {
            m.widest.fetch_max(width, Relaxed);
        }
        let listed: Vec<_> = m.snapshot().iter().collect();
        assert_eq!(listed, [("events", 4), ("level", 1), ("widest", 7)]);
    }
}
