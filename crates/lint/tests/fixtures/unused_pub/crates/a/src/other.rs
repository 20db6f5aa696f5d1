use crate::{only_here, Holder};

/// Re-exported by `lib.rs`, which is a `use`, not a reference: listed.
pub struct Reexported;

pub(crate) fn caller(h: &Holder) {
    crate::used_elsewhere();
    let _ = h;
}
