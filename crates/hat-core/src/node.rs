//! Node wrapper: a simulated node is either a server or a client.

use crate::client::Client;
use crate::messages::Msg;
use crate::server::Server;
use hat_sim::{Actor, Ctx, NodeId, TimerId};

/// A deployment node.
// Variant sizes differ, but nodes are allocated once per deployment and
// never moved; boxing would tax every event dispatch instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Node {
    /// A replica server.
    Server(Server),
    /// A client session.
    Client(Client),
}

impl Node {
    /// The server inside, if this is a server node.
    pub fn as_server(&self) -> Option<&Server> {
        match self {
            Node::Server(s) => Some(s),
            Node::Client(_) => None,
        }
    }

    /// Mutable server access.
    pub fn as_server_mut(&mut self) -> Option<&mut Server> {
        match self {
            Node::Server(s) => Some(s),
            Node::Client(_) => None,
        }
    }

    /// The client inside, if this is a client node.
    pub fn as_client(&self) -> Option<&Client> {
        match self {
            Node::Client(c) => Some(c),
            Node::Server(_) => None,
        }
    }

    /// Mutable client access.
    pub fn as_client_mut(&mut self) -> Option<&mut Client> {
        match self {
            Node::Client(c) => Some(c),
            Node::Server(_) => None,
        }
    }
}

impl Actor for Node {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Server(s) => s.on_start(ctx),
            Node::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match self {
            Node::Server(s) => s.on_message(ctx, from, msg),
            Node::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, timer: TimerId) {
        match self {
            Node::Server(s) => s.on_timer(ctx, timer),
            Node::Client(c) => c.on_timer(ctx, timer),
        }
    }

    /// True while the node holds a write its durability barrier has not
    /// covered (see [`Server::needs_flush`]); never true of a client.
    fn needs_flush(&self) -> bool {
        self.as_server().is_some_and(Server::needs_flush)
    }

    /// Runs the node's durability barrier (see [`Server::flush`]); a
    /// client has nothing to make durable.
    fn flush(&mut self) -> bool {
        self.as_server_mut().is_none_or(|s| s.flush().is_ok())
    }
}
