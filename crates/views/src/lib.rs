//! # psf-views
//!
//! **Object views** (HPDC'03 §4): "Views provide a mechanism by which to
//! define multiple physical realizations of the same logical component."
//! A view of an *original object* (1) implements a subset of its
//! functionality — an *object view* — and/or (2) works with a subset of
//! its data — a *data view*; the interesting views are hybrids of both.
//!
//! The pieces, mapped to the paper:
//!
//! * [`component`] — the component model: classes as method tables over
//!   named interfaces, instances with field state. This is our Rust
//!   substitution for Java classes (DESIGN.md): behaviour lives in
//!   dispatchable method bodies rather than bytecode.
//! * [`spec`] — the XML view-definition language of Table 3(b):
//!   `<View> <Represents> <Restricts> <Adds_Fields> <Adds_Methods>
//!   <Customizes_Methods>`, with an exposure type per interface
//!   (`local`, `rmi`, `switchboard`).
//! * [`vig`] — **VIG**, the view generator (§4.3): defers generation to
//!   first deployment, copies local methods (following the inheritance
//!   chain), turns `rmi`/`switchboard` interfaces into remote stubs
//!   against the original object, injects cache-coherence methods, wraps
//!   every view method in `acquireImage`/`releaseImage`, and rejects
//!   specs that reference undefined fields/methods with errors that guide
//!   repair. Also emits Table 5-style source for inspection.
//! * [`coherence`] — the cache manager: view state as a mergeable /
//!   extractable *image*, pull-on-acquire and write-through/write-back
//!   policies.
//! * [`binding`] — how remote interfaces reach the original object: a
//!   [`RemoteCall`] abstraction implemented by
//!   Switchboard channels (both secure and plain/rmi modes) and by
//!   in-process handles for tests.
//! * [`acl`] — Table 4: role→view access-control tables with
//!   single-sign-on tokens (authorization happens once, at view
//!   instantiation; subsequent requests ride the already-authorized view).
//! * [`auto`] — the paper's §6 future work, implemented: fully automatic
//!   view derivation from capability hints ("these rules are also used
//!   for automatic view creation", Table 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod auto;
pub mod binding;
pub mod coherence;
pub mod component;
pub mod library;
pub mod spec;
pub mod vig;

pub use acl::{SsoToken, ViewAcl};
pub use auto::{derive_spec, AutoViewError, CapabilityRule};
pub use binding::{Binding, RemoteCall};
pub use coherence::{CacheManager, CoherencePolicy, Image};
pub use component::{
    ComponentClass, ComponentClassBuilder, ComponentInstance, FieldDef, InterfaceDef, MethodDef,
};
pub use library::MethodLibrary;
pub use spec::{ExposureType, MethodSpec, ViewSpec};
pub use vig::{GeneratedView, ViewInstance, Vig, VigError};
