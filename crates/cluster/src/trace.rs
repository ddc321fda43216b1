//! Recording cluster executions as level-5 event traces.
//!
//! The cluster does not *interpret* the formal algebra — it runs real
//! engine transactions — but every run can be journaled as the sequence
//! of level-5 events it corresponds to, and the journal replayed through
//! [`rnt_distributed::validate_level5_run`]: every event must be enabled
//! under the paper's eight preconditions, the local mapping (Lemmas
//! 23–28) must hold step by step, and optionally the full Theorem-29
//! composed simulation down to level 1.
//!
//! The mapping from runtime to model vocabulary:
//!
//! | runtime                              | level-5 events                        |
//! |--------------------------------------|---------------------------------------|
//! | `Cluster::insert` seed               | object + initial value in the universe |
//! | first access / `ClusterTxn::child`   | `create` at the home node (bound then) |
//! | `put` at `home(x)`                   | `create` at home, gossip of the active chain, `perform`, eager `release-lock` of the access |
//! | remote `put` acknowledgment          | gossip of the access's commit back home |
//! | `commit` (home side)                 | `commit` at home + `release-lock` of home write keys |
//! | router delivery of a commit          | `send`/`receive` of the status + `release-lock` at the recipient |
//! | `abort`                              | `abort` at home + eager gossip + `lose-lock` everywhere |
//!
//! **Reads are not journaled.** The formal tower models the paper's
//! exclusive-lock algebra, where *every* perform needs all value-map
//! holders to be proper ancestors; the engine runs the read/write
//! extension the paper lists as follow-up work, under which read locks
//! are shared (see `rnt-core`'s `lock.rs`). A shared read has no sound
//! image in the exclusive algebra, so the journal maps the run's
//! *write skeleton*: engine write grants are strictly more restrictive
//! than the model's perform rule (they also exclude non-ancestor
//! readers), hence every journaled perform is model-enabled and the
//! value stacks coincide exactly.
//!
//! Validation is only meaningful for **single-threaded** drivers (the
//! chaos harness, the proptests): with concurrent committers the journal
//! order is not the execution order. The recorder is an opt-in
//! ([`crate::ClusterConfig::trace`]), off for benchmarks, and so are the
//! commit and delivery order logs it brings along.

use rnt_distributed::{validate_level5_run, DistEvent, NodeId, Topology, TraceReport};
use rnt_model::{
    ActionId, ActionSummary, ObjectId, Status, TxEvent, Universe, UniverseBuilder, UpdateFn, Value,
};
use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

/// Conversion from a runtime value type into the model's [`Value`].
///
/// The formal algebra computes over `i64`; to judge a run of
/// `Cluster<K, V>` against it, `V` must embed into `i64` injectively on
/// the values the run actually uses (the validator compares performed
/// values exactly).
pub trait TraceValue {
    /// This value rendered as a model [`Value`].
    fn trace_value(&self) -> Value;
}

macro_rules! int_trace_value {
    ($($t:ty),*) => {$(
        impl TraceValue for $t {
            fn trace_value(&self) -> Value {
                *self as Value
            }
        }
    )*};
}

int_trace_value!(i64, i32, i16, i8, u64, u32, u16, u8);

impl TraceValue for bool {
    fn trace_value(&self) -> Value {
        Value::from(*self)
    }
}

/// One recorded high-level operation. `action` paths are the model
/// coordinates: `[ctid]` is the top-level cluster transaction,
/// `[ctid, ...]` its nested descendants.
#[derive(Clone, Debug)]
pub(crate) enum RecOp<K> {
    /// `Cluster::insert`: an object of the universe with its initial
    /// value, homed at `node`.
    Seed { key: K, node: NodeId, init: Value },
    /// `begin`/`child`: the action enters `Active` at its home node.
    Create { action: Vec<u32>, home: NodeId },
    /// A successful `put`: a write access performed at `node` (the home
    /// of `key`), created at `home` (the transaction's home node), seeing
    /// `pre` and applying `update` (always a write; reads are not
    /// journaled — see the module docs).
    Access { action: Vec<u32>, home: NodeId, node: NodeId, key: K, pre: Value, update: UpdateFn },
    /// A commit or abort resolved *synchronously* (child commit, any
    /// abort, and the home-node half of a top-level commit): the status
    /// event at `home` plus, per node, the lock movements `(holder, key)`
    /// with eager gossip to remote nodes.
    Finish { action: Vec<u32>, home: NodeId, committed: bool, released: ReleasedByNode<K> },
    /// Router enqueue of a top-level commit status toward `to`.
    Send { from: NodeId, to: NodeId, action: Vec<u32> },
    /// Router delivery of that status at `node`: the `receive` plus the
    /// remote `release-lock`s it enables.
    Deliver { node: NodeId, action: Vec<u32>, released: Vec<(Vec<u32>, K)> },
}

/// Lock releases grouped by node: `(holder action path, key)` pairs.
pub(crate) type ReleasedByNode<K> = Vec<(NodeId, Vec<(Vec<u32>, K)>)>;

/// A journal rendered into the formal vocabulary: the universe it
/// implies, the node topology, and the level-5 event sequence.
pub(crate) type BuiltTrace = (Arc<Universe>, Arc<Topology>, Vec<DistEvent>);

fn act(path: &[u32]) -> ActionId {
    ActionId::from_path(path.to_vec())
}

/// Build the formal `(universe, topology, events)` triple from a journal.
pub(crate) fn build<K: Eq + Hash + Ord + Clone>(
    nodes: usize,
    ops: &[RecOp<K>],
) -> Result<BuiltTrace, String> {
    // Pass 1: the universe (objects from seeds, actions from creates and
    // accesses) and the home assignment.
    let mut key_obj: BTreeMap<&K, u32> = BTreeMap::new();
    let mut builder = UniverseBuilder::new();
    let mut home_obj = BTreeMap::new();
    let mut home_act = BTreeMap::new();
    for op in ops {
        match op {
            RecOp::Seed { key, node, init } => {
                let id = key_obj.len() as u32;
                if key_obj.insert(key, id).is_some() {
                    return Err("key seeded twice".into());
                }
                builder = builder.object(id, *init);
                home_obj.insert(ObjectId(id), *node);
            }
            RecOp::Create { action, home } => {
                builder = builder.action(act(action));
                home_act.insert(act(action), *home);
            }
            RecOp::Access { action, node, key, update, .. } => {
                let obj = *key_obj.get(key).ok_or("access to an unseeded key")?;
                builder = builder.access(act(action), obj, *update);
                home_act.insert(act(action), *node);
            }
            _ => {}
        }
    }
    let universe =
        Arc::new(builder.build().map_err(|e| format!("journal universe invalid: {e:?}"))?);
    let topology = Arc::new(
        Topology::new(&universe, nodes, home_obj, home_act)
            .map_err(|e| format!("journal topology invalid: {e:?}"))?,
    );

    // Pass 2: the event sequence.
    let obj_of = |key: &K| ObjectId(key_obj[key]);
    let mut events = Vec::new();
    for op in ops {
        match op {
            RecOp::Seed { .. } => {}
            RecOp::Create { action, home } => {
                events.push(DistEvent::Tx(*home, TxEvent::Create(act(action))));
            }
            RecOp::Access { action, home, node, key, pre, .. } => {
                let a = act(action);
                events.push(DistEvent::Tx(*home, TxEvent::Create(a.clone())));
                if node != home {
                    // The performing node must know the access and its
                    // still-active ancestor chain before it may perform
                    // (rule (d)) — ship exactly that knowledge.
                    let chain = ActionSummary::from_entries(
                        (1..=action.len()).map(|k| (act(&action[..k]), Status::Active)),
                    );
                    events.push(DistEvent::Send { from: *home, to: *node, summary: chain.clone() });
                    events.push(DistEvent::Receive { to: *node, summary: chain });
                }
                events.push(DistEvent::Tx(*node, TxEvent::Perform(a.clone(), *pre)));
                // Accesses auto-commit on perform; the engine's lock
                // inheritance is the eager release to the parent.
                events.push(DistEvent::Tx(*node, TxEvent::ReleaseLock(a.clone(), obj_of(key))));
                if node != home {
                    // The op's success return is the acknowledgment: home
                    // learns the access committed.
                    let ack = ActionSummary::singleton(a, Status::Committed);
                    events.push(DistEvent::Send { from: *node, to: *home, summary: ack.clone() });
                    events.push(DistEvent::Receive { to: *home, summary: ack });
                }
            }
            RecOp::Finish { action, home, committed, released } => {
                let a = act(action);
                let status = if *committed { Status::Committed } else { Status::Aborted };
                let tx =
                    if *committed { TxEvent::Commit(a.clone()) } else { TxEvent::Abort(a.clone()) };
                events.push(DistEvent::Tx(*home, tx));
                for (node, pairs) in released {
                    if node != home {
                        let s = ActionSummary::singleton(a.clone(), status);
                        events.push(DistEvent::Send { from: *home, to: *node, summary: s.clone() });
                        events.push(DistEvent::Receive { to: *node, summary: s });
                    }
                    for (holder, key) in pairs {
                        let tx = if *committed {
                            TxEvent::ReleaseLock(act(holder), obj_of(key))
                        } else {
                            TxEvent::LoseLock(act(holder), obj_of(key))
                        };
                        events.push(DistEvent::Tx(*node, tx));
                    }
                }
            }
            RecOp::Send { from, to, action } => {
                events.push(DistEvent::Send {
                    from: *from,
                    to: *to,
                    summary: ActionSummary::singleton(act(action), Status::Committed),
                });
            }
            RecOp::Deliver { node, action, released } => {
                events.push(DistEvent::Receive {
                    to: *node,
                    summary: ActionSummary::singleton(act(action), Status::Committed),
                });
                for (holder, key) in released {
                    events
                        .push(DistEvent::Tx(*node, TxEvent::ReleaseLock(act(holder), obj_of(key))));
                }
            }
        }
    }
    Ok((universe, topology, events))
}

/// Build and validate a journal; `deep` additionally runs the Theorem-29
/// composed simulation down to level 1.
pub(crate) fn validate<K: Eq + Hash + Ord + Clone>(
    nodes: usize,
    ops: &[RecOp<K>],
    deep: bool,
) -> Result<TraceReport, String> {
    let (universe, topology, events) = build(nodes, ops)?;
    validate_level5_run(&universe, &topology, &events, deep)
}
