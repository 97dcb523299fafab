//! The tree-walking interpreter: the differential oracle for the threaded
//! engine, selected with [`Switch::set_engine`].
//!
//! Invariants:
//! - Deliberately naive: it re-resolves every field path, action and
//!   register by name per packet through the string compatibility layer,
//!   sharing nothing with the lowering except the runtime state it
//!   mutates — an oracle that shared the lowering would share its bugs.
//! - It counts, mutates and fails exactly as the threaded engine does:
//!   same counters on the same events, same error text at the same moment.

use crate::eval::{eval, mask_of};
use crate::packet::{read_field, write_field, FieldError, Packet, PacketError};
use crate::switch::{Switch, SwitchError};
use netcl_ir::interp::eval_intrinsic;
use netcl_p4::ast::*;
use netcl_util::hash::splitmix64;
use std::sync::Arc;

fn field_err(e: FieldError, header: &str) -> SwitchError {
    match e {
        FieldError::Unaligned { .. } => PacketError::Unaligned(header.to_string()).into(),
        FieldError::Truncated => PacketError::Truncated { header: header.to_string() }.into(),
    }
}

impl Switch {
    fn header_def(&self, instance: &str) -> Option<&HeaderDef> {
        let ty = format!("{instance}_t");
        self.program.headers.iter().find(|h| h.name == ty)
    }

    /// One full parse → ingress → deparse run on the interpreter.
    pub(crate) fn run_interp(
        &mut self,
        wire: &[u8],
        pkt: &mut Packet,
        out: &mut Vec<u8>,
    ) -> Result<(), SwitchError> {
        self.parse_interp(wire, pkt)?;
        // A second handle on the program, so that walking it does not
        // borrow `self`, which executing a statement mutates.
        let program = Arc::clone(&self.program);
        for control in program.controls.iter() {
            self.exec_stmts(&control.apply, control, pkt)?;
        }
        self.deparse_interp(pkt, out)
    }

    fn parse_interp(&self, wire: &[u8], pkt: &mut Packet) -> Result<(), SwitchError> {
        let Some(parser) = &self.program.parser else {
            pkt.payload.extend_from_slice(wire);
            return Ok(());
        };
        let mut cursor = 0usize;
        let mut state = "start".to_string();
        let mut hops = 0;
        while state != "accept" && state != "reject" {
            hops += 1;
            if hops > 64 {
                return Err(SwitchError::Unknown("parser loop".into()));
            }
            let Some(st) = parser.states.iter().find(|s| s.name == state) else {
                return Err(SwitchError::Unknown(format!("parser state `{state}`")));
            };
            for ex in &st.extracts {
                let instance = ex.strip_prefix("hdr.").unwrap_or(ex).to_string();
                let def = self
                    .header_def(&instance)
                    .ok_or_else(|| SwitchError::Unknown(format!("header `{instance}`")))?;
                for i in 0..def.stack {
                    for (fname, bits) in &def.fields {
                        let v = read_field(wire, &mut cursor, *bits)
                            .map_err(|e| field_err(e, &instance))?;
                        let path = if def.stack > 1 {
                            format!("{instance}[{i}].{fname}")
                        } else {
                            format!("{instance}.{fname}")
                        };
                        pkt.set(&path, v);
                    }
                }
                pkt.set_valid(&instance, true);
            }
            state = match &st.transition {
                Transition::Accept => "accept".into(),
                Transition::Reject => "reject".into(),
                Transition::Direct(t) => t.clone(),
                Transition::Select { selector, cases, default } => {
                    let widths = self.width_fn();
                    let (v, _) = eval(selector, pkt, &widths);
                    cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, t)| t.clone())
                        .unwrap_or_else(|| default.clone())
                }
            };
        }
        pkt.payload.extend_from_slice(&wire[cursor..]);
        Ok(())
    }

    fn deparse_interp(&self, pkt: &Packet, out: &mut Vec<u8>) -> Result<(), SwitchError> {
        for &id in pkt.order_ids() {
            if !pkt.is_valid_id(id) {
                continue;
            }
            let instance = pkt.instance_name(id);
            let def = self
                .header_def(instance)
                .ok_or_else(|| SwitchError::Unknown(format!("header `{instance}`")))?;
            for i in 0..def.stack {
                for (fname, bits) in &def.fields {
                    let path = if def.stack > 1 {
                        format!("{instance}[{i}].{fname}")
                    } else {
                        format!("{instance}.{fname}")
                    };
                    write_field(out, pkt.get(&path), *bits).map_err(|e| field_err(e, instance))?;
                }
            }
        }
        out.extend_from_slice(&pkt.payload);
        Ok(())
    }

    fn width_fn(&self) -> impl Fn(&str) -> u32 + '_ {
        move |path: &str| self.loaded.layout.width_of(path)
    }

    fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<(), SwitchError> {
        for s in stmts {
            self.exec_stmt(s, control, pkt)?;
        }
        Ok(())
    }

    fn assign(&self, pkt: &mut Packet, dst: &Expr, value: u64) {
        let Expr::Field(p) = dst else { return };
        let path = p.canonical();
        let v = value & mask_of(self.loaded.layout.width_of(path));
        if p.ns() == Ns::Meta {
            pkt.set_meta(path, v);
        } else {
            pkt.set(path, v);
        }
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<(), SwitchError> {
        match stmt {
            Stmt::Assign(dst, rhs) => {
                let widths = self.width_fn();
                let (v, _) = eval(rhs, pkt, &widths);
                self.assign(pkt, dst, v);
            }
            Stmt::CallAction(name) => {
                let a = control
                    .action(name)
                    .ok_or_else(|| SwitchError::Unknown(format!("action `{name}`")))?
                    .clone();
                self.exec_action(&a, &[], control, pkt)?;
            }
            Stmt::ApplyTable(name) => {
                self.apply_table(name, control, pkt)?;
            }
            Stmt::ExecuteRegisterAction { dst, ra, index } => {
                self.st.counters.reg_action_execs += 1;
                let radef = control
                    .register_action(ra)
                    .ok_or_else(|| SwitchError::Unknown(format!("RegisterAction `{ra}`")))?
                    .clone();
                let reg = control.register(&radef.register).ok_or_else(|| {
                    SwitchError::Unknown(format!("register `{}`", radef.register))
                })?;
                let bits = reg.elem_bits;
                let widths = self.width_fn();
                let (idx, _) = eval(index, pkt, &widths);
                let cond = match &radef.cond {
                    Some(c) => eval(c, pkt, &widths).0 != 0,
                    None => true,
                };
                let mut ops = Vec::new();
                for o in &radef.operands {
                    ops.push(eval(o, pkt, &widths).0 & mask_of(bits));
                }
                drop(widths);
                let reg_i = self.loaded.layout.reg_index.get(&radef.register).copied().ok_or_else(
                    || SwitchError::Unknown(format!("register `{}`", radef.register)),
                )?;
                let cells = &mut self.st.registers[reg_i as usize];
                let i = (idx as usize).min(cells.len().saturating_sub(1));
                let old = cells.get(i).copied().unwrap_or(0);
                let sty = netcl_sema::Ty::Int { bits: (bits as u8).clamp(8, 64), signed: false };
                let (new, ret) = radef.op.execute(old, cond, &ops, sty);
                if let Some(cell) = cells.get_mut(i) {
                    *cell = new & mask_of(bits);
                }
                if let Some(d) = dst {
                    self.assign(pkt, d, ret);
                }
            }
            Stmt::HashGet { dst, hash, args } => {
                let h = control
                    .hashes
                    .iter()
                    .find(|h| h.name == *hash)
                    .ok_or_else(|| SwitchError::Unknown(format!("hash `{hash}`")))?
                    .clone();
                let widths = self.width_fn();
                // Hash the concatenated little-endian bytes of all args, as
                // the IR interpreter does for its single-key form.
                let mut key = 0u64;
                let mut key_bits = 0u32;
                for a in args {
                    let (v, w) = eval(a, pkt, &widths);
                    key |= (v & mask_of(w)) << key_bits.min(63);
                    key_bits += w;
                }
                let key_bytes = key_bits.div_ceil(8).max(1);
                let v = h.algo.compute(key, key_bytes, h.out_bits.min(64) as u8);
                drop(widths);
                self.assign(pkt, dst, v);
            }
            Stmt::If { cond, then, els } => {
                let taken = match cond {
                    Expr::TableHit(t) => self.apply_table(t, control, pkt)?,
                    Expr::TableMiss(t) => !self.apply_table(t, control, pkt)?,
                    other => {
                        let widths = self.width_fn();
                        eval(other, pkt, &widths).0 != 0
                    }
                };
                if taken {
                    self.exec_stmts(then, control, pkt)?;
                } else {
                    self.exec_stmts(els, control, pkt)?;
                }
            }
            Stmt::ExternCall { dst, func, args } => {
                self.st.counters.extern_calls += 1;
                let widths = self.width_fn();
                let mut vals = Vec::new();
                for a in args {
                    vals.push(eval(a, pkt, &widths).0);
                }
                drop(widths);
                let v = match func.as_str() {
                    // The IR interpreter's RNG.
                    "random" => splitmix64(&mut self.st.rng),
                    other => match other.split_once('_') {
                        Some((target, name)) => eval_intrinsic(target, name, &vals),
                        None => eval_intrinsic("", other, &vals),
                    },
                };
                if let Some(d) = dst {
                    self.assign(pkt, d, v);
                }
            }
            Stmt::SetValid(Expr::Field(p)) => pkt.set_valid(p.instance(), true),
            Stmt::SetInvalid(Expr::Field(p)) => pkt.set_valid(p.instance(), false),
            Stmt::SetValid(_) | Stmt::SetInvalid(_) | Stmt::Exit => {}
        }
        Ok(())
    }

    /// Applies a table; returns hit/miss.
    fn apply_table(
        &mut self,
        name: &str,
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<bool, SwitchError> {
        let t = control
            .table(name)
            .ok_or_else(|| SwitchError::Unknown(format!("table `{name}`")))?
            .clone();
        let widths = self.width_fn();
        let key_vals: Vec<u64> = t.keys.iter().map(|(k, _)| eval(k, pkt, &widths).0).collect();
        drop(widths);
        let state = self.loaded.layout.table_index.get(name).copied();
        let entries = state.map(|i| self.st.tables[i as usize].clone()).unwrap_or_default();
        let hit = entries.iter().find(|e| {
            e.keys.len() == key_vals.len()
                && e.keys.iter().zip(&key_vals).all(|(ek, kv)| match ek {
                    EntryKey::Value(v) => v == kv,
                    EntryKey::Range(lo, hi) => lo <= kv && kv <= hi,
                })
        });
        if let Some(i) = state {
            match hit {
                Some(_) => self.st.counters.table_hits[i as usize] += 1,
                None => self.st.counters.table_misses[i as usize] += 1,
            }
        }
        match hit {
            Some(entry) => {
                let entry = entry.clone();
                if let Some(a) = control.action(&entry.action) {
                    let a = a.clone();
                    self.exec_action(&a, &entry.args, control, pkt)?;
                }
                Ok(true)
            }
            None => {
                if t.default_action != "NoAction" {
                    if let Some(a) = control.action(&t.default_action) {
                        let a = a.clone();
                        self.exec_action(&a, &[], control, pkt)?;
                    }
                }
                Ok(false)
            }
        }
    }

    fn exec_action(
        &mut self,
        action: &ActionDef,
        args: &[u64],
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<(), SwitchError> {
        self.st.counters.action_calls += 1;
        // Bind parameters as metadata under their bare names (action-local).
        let saved: Vec<(String, Option<u64>)> =
            action.params.iter().map(|(n, _)| (n.clone(), pkt.meta_opt(n))).collect();
        for ((n, w), v) in action.params.iter().zip(args) {
            pkt.set_meta(n, v & mask_of(*w));
        }
        self.exec_stmts(&action.body, control, pkt)?;
        for (n, old) in saved {
            match old {
                Some(v) => pkt.set_meta(&n, v),
                None => pkt.meta_remove(&n),
            }
        }
        Ok(())
    }
}
