//! [`TableCell`]: a table built once, on first use, shared by clones.

use std::sync::{Arc, OnceLock};

/// The table of a value that many calls reuse, built by the first call
/// that needs it: [`crate::pairing::FixedBaseGt`]'s window table and
/// [`crate::msm::LazyG1Table`]'s slice rows. Clones share the table.
///
/// The build bumps the obs counter its caller names and opens no span
/// (which concurrent caller builds it depends on scheduling). A cell is
/// a cache, not a value: every cell equals every other, and `Debug`
/// shows only whether it is built.
#[derive(Clone)]
pub struct TableCell<T>(Arc<OnceLock<T>>);

impl<T> TableCell<T> {
    /// The table, once built.
    pub fn get(&self) -> Option<&T> {
        self.0.get()
    }

    /// The table, built by `build` and counted in the obs counter
    /// `counter` unless this cell or a clone has built it already.
    pub fn get_or_build(&self, counter: &str, build: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(|| {
            dsaudit_obs::counter_inc(counter);
            build()
        })
    }
}

impl<T> Default for TableCell<T> {
    fn default() -> Self {
        Self(Arc::default())
    }
}

impl<T> PartialEq for TableCell<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for TableCell<T> {}

impl<T> std::fmt::Debug for TableCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCell").field("built", &self.get().is_some()).finish()
    }
}
