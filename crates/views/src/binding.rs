//! Bindings: how a view's non-local interfaces reach the original object.
//!
//! Table 3(b) gives each restricted interface an exposure type:
//! `local` (same address space), `rmi` (plain remote calls), or
//! `switchboard` (secure monitored channel). [`RemoteCall`] abstracts the
//! two remote flavours; Switchboard channels implement it directly (a
//! plain-mode channel *is* our RMI substitute — see DESIGN.md).

use crate::component::ComponentInstance;
use std::sync::Arc;

/// Something that can carry a remote method invocation.
pub trait RemoteCall: Send + Sync {
    /// Invoke `method` with `args` on the remote original object.
    fn call_remote(&self, method: &str, args: &[u8]) -> Result<Vec<u8>, String>;

    /// Short transport label for emitted source / diagnostics.
    fn transport_label(&self) -> &'static str;
}

impl RemoteCall for psf_switchboard::Channel {
    fn call_remote(&self, method: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        self.call(method, args).map_err(|e| e.to_string())
    }

    fn transport_label(&self) -> &'static str {
        if self.peer().is_some() {
            "switchboard"
        } else {
            "rmi"
        }
    }
}

/// An in-process remote stand-in: calls go straight to a component
/// instance. Used by tests and by co-located deployments.
pub struct InProcessRemote {
    target: Arc<ComponentInstance>,
    label: &'static str,
}

impl InProcessRemote {
    /// Wrap an instance as an "rmi" endpoint.
    pub fn rmi(target: Arc<ComponentInstance>) -> Arc<dyn RemoteCall> {
        Arc::new(InProcessRemote {
            target,
            label: "rmi",
        })
    }

    /// Wrap an instance as a "switchboard" endpoint.
    pub fn switchboard(target: Arc<ComponentInstance>) -> Arc<dyn RemoteCall> {
        Arc::new(InProcessRemote {
            target,
            label: "switchboard",
        })
    }
}

impl RemoteCall for InProcessRemote {
    fn call_remote(&self, method: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        dispatch_with_coherence(&self.target, method, args)
    }

    fn transport_label(&self) -> &'static str {
        self.label
    }
}

/// Reserved method name: pull a coherence image of the named fields
/// (args = newline-separated field names).
pub const EXTRACT_IMAGE: &str = "__extract_image";
/// Reserved method name: merge a coherence image (args = image bytes).
pub const MERGE_IMAGE: &str = "__merge_image";

/// Serve a component's methods *plus* the reserved coherence endpoints —
/// the dispatch every remote-facing host uses, whether in-process or
/// behind a Switchboard channel.
pub fn dispatch_with_coherence(
    target: &Arc<ComponentInstance>,
    method: &str,
    args: &[u8],
) -> Result<Vec<u8>, String> {
    match method {
        EXTRACT_IMAGE => {
            let fields: Vec<String> = String::from_utf8_lossy(args)
                .lines()
                .map(str::to_string)
                .collect();
            Ok(target.extract_image(&fields).to_bytes())
        }
        MERGE_IMAGE => {
            let image = crate::coherence::Image::from_bytes(args)?;
            target.merge_image(&image);
            Ok(Vec::new())
        }
        _ => target.invoke(method, args),
    }
}

/// Register every method of `instance` (and the coherence endpoints) as
/// handlers on a Switchboard channel, making the channel a remote face of
/// the original object. Methods run user code that may call further
/// components, so they are blocking handlers and run off-shard.
pub fn serve_on_channel(channel: &psf_switchboard::Channel, instance: Arc<ComponentInstance>) {
    let mut methods: Vec<String> = instance.class().methods.keys().cloned().collect();
    let mut parent = instance.class().parent.clone();
    while let Some(p) = parent {
        methods.extend(p.methods.keys().cloned());
        parent = p.parent.clone();
    }
    for m in methods {
        let inst = instance.clone();
        let name = m.clone();
        channel.register_blocking_handler(m, move |args| inst.invoke(&name, args));
    }
    let inst = instance.clone();
    channel.register_blocking_handler(EXTRACT_IMAGE, move |args| {
        dispatch_with_coherence(&inst, EXTRACT_IMAGE, args)
    });
    let inst = instance;
    channel.register_blocking_handler(MERGE_IMAGE, move |args| {
        dispatch_with_coherence(&inst, MERGE_IMAGE, args)
    });
}

/// Where a view's interface traffic goes.
#[derive(Clone)]
pub enum Binding {
    /// Methods run inside the view itself (state was copied in).
    Local,
    /// Methods forward over an unauthenticated remote channel.
    Rmi(Arc<dyn RemoteCall>),
    /// Methods forward over a secure, monitored Switchboard channel.
    Switchboard(Arc<dyn RemoteCall>),
}

impl Binding {
    /// The remote transport, if any.
    pub fn remote(&self) -> Option<&Arc<dyn RemoteCall>> {
        match self {
            Binding::Local => None,
            Binding::Rmi(r) | Binding::Switchboard(r) => Some(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentClass;

    #[test]
    fn in_process_remote_forwards() {
        let class = ComponentClass::builder("Echo")
            .interface("EchoI", ["echo"])
            .method("echo", "byte[] echo(byte[])", &[], false, |_, a| {
                Ok(a.to_vec())
            })
            .build()
            .unwrap();
        let inst = class.instantiate();
        let remote = InProcessRemote::rmi(inst);
        assert_eq!(remote.call_remote("echo", b"hi").unwrap(), b"hi");
        assert_eq!(remote.transport_label(), "rmi");
    }
}
