//! Parser for the textual IR format produced by [`crate::display`].
//!
//! The grammar (one instruction per line; `;` starts a comment):
//!
//! ```text
//! module NAME
//! func @NAME(NPARAMS) {
//!   frame N
//!   vregs N
//! block NAME:
//!   [spill]|[csave]|[jump]   (optional origin tag)
//!   vD = li IMM
//!   vD = OP a, b             (b a register or an immediate)
//!   vD = mov a
//!   vD = load.KIND slotN
//!   store.KIND a, slotN
//!   [rD =] call @F(args) | call ext:N(args)
//!   jmp BLOCK
//!   br COND a, b, TAKEN, FALLTHROUGH
//!   ret [a]
//! }
//! ```

use crate::function::Function;
use crate::ids::{BlockId, FrameSlot, FuncId, PReg, Reg, VReg};
use crate::inst::{BinOp, Callee, Cond, Inst, InstKind, MemKind, Origin};
use crate::module::Module;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// The largest `frame N`, `vregs N`, `vN + 1` or `slotN + 1` count, and
/// the most blocks in one function, the reader accepts. Register
/// allocation builds an interference matrix quadratic in the vreg count
/// (at this limit, 2^30 bits = 128 MiB), and the per-block analyses grow
/// with the block count times the vreg count, so a hostile count must
/// fail here, with its line, rather than exhaust memory or abort the
/// process downstream. The largest function the generators emit (stress
/// at scale 32, the SPEC stand-ins) has about 4.3k vregs, 420 blocks and
/// 39 frame slots.
const MAX_COUNT: usize = 1 << 15;

/// Rejects a `what` count above [`MAX_COUNT`].
fn check_count(line: usize, what: &str, n: usize) -> Result<(), ParseError> {
    if n > MAX_COUNT {
        return err(line, format!("{what} {n} exceeds the limit of {MAX_COUNT}"));
    }
    Ok(())
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Maps parsed IR entities back to 1-based source lines, for reporting
/// post-parse diagnostics (verifier errors) against the input text.
#[derive(Clone, Debug, Default)]
pub struct SourceMap {
    funcs: HashMap<String, FuncSourceMap>,
}

#[derive(Clone, Debug, Default)]
struct FuncSourceMap {
    /// Line of the `func @name(...) {` header.
    header: usize,
    /// Line of each `block NAME:` label, indexed by block id.
    block_lines: Vec<usize>,
    /// Line of each instruction, indexed by block id then position.
    inst_lines: Vec<Vec<usize>>,
}

impl SourceMap {
    /// The most precise line known for `(func, block, instruction)`:
    /// the instruction's line, else the block label's, else the function
    /// header's.
    pub fn line(
        &self,
        func: &str,
        block: Option<BlockId>,
        inst_index: Option<usize>,
    ) -> Option<usize> {
        let f = self.funcs.get(func)?;
        if let Some(b) = block {
            if let (Some(i), Some(lines)) = (inst_index, f.inst_lines.get(b.index())) {
                if let Some(&l) = lines.get(i) {
                    return Some(l);
                }
            }
            if let Some(&l) = f.block_lines.get(b.index()) {
                return Some(l);
            }
        }
        Some(f.header)
    }

    /// The source line of a verifier error raised against the parsed
    /// module.
    pub fn line_of(&self, err: &crate::verify::VerifyError) -> Option<usize> {
        self.line(err.func(), err.block(), err.inst_index())
    }
}

/// Parses a whole module.
///
/// # Errors
///
/// Returns the first syntax error encountered, with its line number.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    parse_module_traced(text).map(|(m, _)| m)
}

/// As [`parse_module`], also returning a [`SourceMap`] from parsed
/// entities back to source lines (for post-parse diagnostics such as
/// verifier errors).
///
/// # Errors
///
/// Returns the first syntax error encountered, with its line number.
pub fn parse_module_traced(text: &str) -> Result<(Module, SourceMap), ParseError> {
    // Pass 1: collect function names in order to resolve forward calls.
    let mut func_names = Vec::new();
    for line in text.lines() {
        let line = strip_comment(line).trim();
        if let Some(rest) = line.strip_prefix("func @") {
            if let Some(paren) = rest.find('(') {
                func_names.push(rest[..paren].to_string());
            }
        }
    }
    let name_map: HashMap<String, FuncId> = func_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), FuncId::from_index(i)))
        .collect();

    let mut module_name = String::from("unnamed");
    let mut module = None;
    let mut map = SourceMap::default();
    let mut parser = Parser::new(text, name_map);
    while let Some((lno, line)) = parser.peek_line() {
        if line.is_empty() {
            parser.next_line();
            continue;
        }
        if let Some(rest) = line.strip_prefix("module ") {
            module_name = rest.trim().to_string();
            parser.next_line();
            continue;
        }
        if line.starts_with("func @") {
            let (f, fmap) = parser.parse_function()?;
            // Calls resolve by name and the source map is keyed by it,
            // so a second definition would shadow the first.
            if let Some(first) = map.funcs.get(f.name()) {
                return err(
                    fmap.header,
                    format!(
                        "duplicate function `@{}` (first defined on line {})",
                        f.name(),
                        first.header
                    ),
                );
            }
            map.funcs.insert(f.name().to_string(), fmap);
            module
                .get_or_insert_with(|| Module::new(module_name.clone()))
                .add_func(f);
            continue;
        }
        return err(lno, format!("unexpected line: `{line}`"));
    }
    Ok((module.unwrap_or_else(|| Module::new(module_name)), map))
}

/// Parses a single function. `call @name` operands are rejected (use
/// [`parse_module`]); `call ext:N` is allowed.
///
/// # Errors
///
/// Returns the first syntax error encountered, with its line number.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let mut parser = Parser::new(text, HashMap::new());
    while let Some((_, line)) = parser.peek_line() {
        if line.is_empty() || line.starts_with("module ") {
            parser.next_line();
            continue;
        }
        break;
    }
    parser.parse_function().map(|(f, _)| f)
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
    func_names: HashMap<String, FuncId>,
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(i) => &line[..i],
        None => line,
    }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, func_names: HashMap<String, FuncId>) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, strip_comment(l).trim()))
            .collect();
        Parser {
            lines,
            pos: 0,
            func_names,
        }
    }

    fn peek_line(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let l = self.lines.get(self.pos).copied();
        self.pos += 1;
        l
    }

    fn parse_function(&mut self) -> Result<(Function, FuncSourceMap), ParseError> {
        let (lno, header) = self.next_line().expect("caller checked");
        let rest = header.strip_prefix("func @").ok_or_else(|| ParseError {
            line: lno,
            message: "expected `func @name(params) {`".into(),
        })?;
        let open_paren = rest.find('(');
        let close = rest.find(')');
        let (name, nparams) = match (open_paren, close) {
            (Some(o), Some(c)) if c > o => {
                let name = &rest[..o];
                let n: usize = rest[o + 1..c].trim().parse().map_err(|_| ParseError {
                    line: lno,
                    message: "bad parameter count".into(),
                })?;
                (name, n)
            }
            _ => return err(lno, "expected `func @name(params) {`"),
        };
        if !rest[close.unwrap() + 1..].trim_start().starts_with('{') {
            return err(lno, "expected `{` after function header");
        }

        let mut func = Function::new(name);
        func.set_num_params(nparams);
        let mut fmap = FuncSourceMap {
            header: lno,
            ..FuncSourceMap::default()
        };

        // Pre-scan the body for block labels so forward branch targets
        // resolve; blocks get ids in order of their labels.
        let mut block_ids: HashMap<String, BlockId> = HashMap::new();
        let mut depth_pos = self.pos;
        while let Some(&(label_line, line)) = self.lines.get(depth_pos) {
            if line == "}" {
                break;
            }
            if let Some(rest) = line.strip_prefix("block ") {
                let label = rest.trim_end_matches(':').trim();
                if let Some(first) = block_ids.get(label) {
                    return err(
                        label_line,
                        format!(
                            "duplicate block label `{label}` (first defined on line {})",
                            fmap.block_lines[first.index()]
                        ),
                    );
                }
                check_count(label_line, "block count", func.num_blocks() + 1)?;
                let id = func.add_block(Some(label));
                block_ids.insert(label.to_string(), id);
                fmap.block_lines.push(label_line);
                fmap.inst_lines.push(Vec::new());
            }
            depth_pos += 1;
        }

        let mut cur: Option<BlockId> = None;
        loop {
            let Some((lno, line)) = self.next_line() else {
                return err(0, "unexpected end of input inside function");
            };
            if line.is_empty() {
                continue;
            }
            if line == "}" {
                break;
            }
            if let Some(rest) = line.strip_prefix("frame ") {
                let n: usize = rest.trim().parse().map_err(|_| ParseError {
                    line: lno,
                    message: "bad frame size".into(),
                })?;
                check_count(lno, "frame size", n)?;
                func.frame_mut().reserve_slots(n);
                continue;
            }
            if let Some(rest) = line.strip_prefix("vregs ") {
                let n: usize = rest.trim().parse().map_err(|_| ParseError {
                    line: lno,
                    message: "bad vreg count".into(),
                })?;
                check_count(lno, "vreg count", n)?;
                func.reserve_vregs(n);
                continue;
            }
            if let Some(rest) = line.strip_prefix("block ") {
                cur = Some(block_ids[rest.trim_end_matches(':').trim()]);
                continue;
            }
            let Some(block) = cur else {
                return err(lno, "instruction outside any block");
            };
            let inst = self.parse_inst(lno, line, &block_ids, &mut func)?;
            fmap.inst_lines[block.index()].push(lno);
            func.block_mut(block).insts.push(inst);
        }
        Ok((func, fmap))
    }

    fn parse_inst(
        &self,
        lno: usize,
        line: &str,
        blocks: &HashMap<String, BlockId>,
        func: &mut Function,
    ) -> Result<Inst, ParseError> {
        let (origin, line) = if let Some(rest) = line.strip_prefix("[spill]") {
            (Origin::Spill, rest.trim_start())
        } else if let Some(rest) = line.strip_prefix("[csave]") {
            (Origin::CalleeSave, rest.trim_start())
        } else if let Some(rest) = line.strip_prefix("[jump]") {
            (Origin::JumpBlock, rest.trim_start())
        } else {
            (Origin::Source, line)
        };

        let kind = self.parse_inst_kind(lno, line, blocks, func)?;
        Ok(Inst::with_origin(kind, origin))
    }

    fn parse_inst_kind(
        &self,
        lno: usize,
        line: &str,
        blocks: &HashMap<String, BlockId>,
        func: &mut Function,
    ) -> Result<InstKind, ParseError> {
        let lookup_block = |name: &str| -> Result<BlockId, ParseError> {
            blocks.get(name).copied().ok_or_else(|| ParseError {
                line: lno,
                message: format!("unknown block `{name}`"),
            })
        };

        // Terminators and non-defining instructions first.
        if let Some(rest) = line.strip_prefix("jmp ") {
            return Ok(InstKind::Jump {
                target: lookup_block(rest.trim())?,
            });
        }
        if let Some(rest) = line.strip_prefix("br ") {
            let mut parts = rest.splitn(2, ' ');
            let cond = parse_cond(lno, parts.next().unwrap_or(""))?;
            let ops = parts.next().unwrap_or("");
            let items: Vec<&str> = ops.split(',').map(str::trim).collect();
            if items.len() != 4 {
                return err(lno, "expected `br cond a, b, taken, fallthrough`");
            }
            return Ok(InstKind::Branch {
                cond,
                lhs: parse_reg(lno, items[0], func)?,
                rhs: parse_reg(lno, items[1], func)?,
                taken: lookup_block(items[2])?,
                fallthrough: lookup_block(items[3])?,
            });
        }
        if line == "ret" {
            return Ok(InstKind::Return { value: None });
        }
        if let Some(rest) = line.strip_prefix("ret ") {
            return Ok(InstKind::Return {
                value: Some(parse_reg(lno, rest.trim(), func)?),
            });
        }
        if let Some(rest) = line.strip_prefix("store.") {
            let (kind, rest) = parse_memkind(lno, rest)?;
            let items: Vec<&str> = rest.split(',').map(str::trim).collect();
            if items.len() != 2 {
                return err(lno, "expected `store.kind reg, slotN`");
            }
            return Ok(InstKind::Store {
                src: parse_reg(lno, items[0], func)?,
                slot: parse_slot(lno, items[1], func)?,
                kind,
            });
        }
        if line.starts_with("call ") {
            return self.parse_call(lno, line, None, func);
        }

        // `dst = ...` forms.
        let Some(eq) = line.find('=') else {
            return err(lno, format!("unrecognized instruction `{line}`"));
        };
        let dst = parse_reg(lno, line[..eq].trim(), func)?;
        let rhs = line[eq + 1..].trim();

        if let Some(rest) = rhs.strip_prefix("li ") {
            let imm = parse_imm(lno, rest.trim())?;
            return Ok(InstKind::LoadImm { dst, imm });
        }
        if let Some(rest) = rhs.strip_prefix("mov ") {
            return Ok(InstKind::Move {
                dst,
                src: parse_reg(lno, rest.trim(), func)?,
            });
        }
        if let Some(rest) = rhs.strip_prefix("load.") {
            let (kind, rest) = parse_memkind(lno, rest)?;
            return Ok(InstKind::Load {
                dst,
                slot: parse_slot(lno, rest.trim(), func)?,
                kind,
            });
        }
        if rhs.starts_with("call ") {
            return self.parse_call(lno, rhs, Some(dst), func);
        }

        // Binary op: `op a, b`.
        let mut parts = rhs.splitn(2, ' ');
        let op = parse_binop(lno, parts.next().unwrap_or(""))?;
        let ops = parts.next().unwrap_or("");
        let items: Vec<&str> = ops.split(',').map(str::trim).collect();
        if items.len() != 2 {
            return err(lno, "expected two operands");
        }
        let lhs = parse_reg(lno, items[0], func)?;
        if items[1].starts_with('v') || items[1].starts_with('r') {
            Ok(InstKind::Bin {
                op,
                dst,
                lhs,
                rhs: parse_reg(lno, items[1], func)?,
            })
        } else {
            Ok(InstKind::BinImm {
                op,
                dst,
                lhs,
                imm: parse_imm(lno, items[1])?,
            })
        }
    }

    fn parse_call(
        &self,
        lno: usize,
        text: &str,
        ret: Option<Reg>,
        func: &mut Function,
    ) -> Result<InstKind, ParseError> {
        let rest = text.strip_prefix("call ").expect("checked by caller");
        let open = rest.find('(').ok_or_else(|| ParseError {
            line: lno,
            message: "expected `(` in call".into(),
        })?;
        let close = rest.rfind(')').ok_or_else(|| ParseError {
            line: lno,
            message: "expected `)` in call".into(),
        })?;
        let target = rest[..open].trim();
        let callee = if let Some(name) = target.strip_prefix('@') {
            // Accept either a function name or a raw index.
            if let Ok(idx) = name.parse::<usize>() {
                Callee::Func(FuncId::from_index(idx))
            } else {
                match self.func_names.get(name) {
                    Some(id) => Callee::Func(*id),
                    None => return err(lno, format!("unknown function `@{name}`")),
                }
            }
        } else if let Some(n) = target.strip_prefix("ext:") {
            Callee::External(n.parse().map_err(|_| ParseError {
                line: lno,
                message: "bad external id".into(),
            })?)
        } else {
            return err(lno, format!("bad call target `{target}`"));
        };
        let args_text = rest[open + 1..close].trim();
        let mut args = Vec::new();
        if !args_text.is_empty() {
            for a in args_text.split(',') {
                args.push(parse_reg(lno, a.trim(), func)?);
            }
        }
        Ok(InstKind::Call { callee, args, ret })
    }
}

fn parse_imm(lno: usize, s: &str) -> Result<i64, ParseError> {
    s.parse().map_err(|_| ParseError {
        line: lno,
        message: format!("bad immediate `{s}`"),
    })
}

fn parse_reg(lno: usize, s: &str, func: &mut Function) -> Result<Reg, ParseError> {
    if let Some(n) = s.strip_prefix('v') {
        let idx: usize = n.parse().map_err(|_| ParseError {
            line: lno,
            message: format!("bad register `{s}`"),
        })?;
        check_count(lno, "vreg count", idx.saturating_add(1))?;
        func.reserve_vregs(idx + 1);
        return Ok(Reg::Virt(VReg::from_index(idx)));
    }
    if let Some(n) = s.strip_prefix('r') {
        let idx: u8 = n.parse().map_err(|_| ParseError {
            line: lno,
            message: format!("bad register `{s}`"),
        })?;
        return Ok(Reg::Phys(PReg::new(idx)));
    }
    err(lno, format!("bad register `{s}`"))
}

fn parse_slot(lno: usize, s: &str, func: &mut Function) -> Result<FrameSlot, ParseError> {
    let Some(n) = s.strip_prefix("slot") else {
        return err(lno, format!("bad slot `{s}`"));
    };
    let idx: usize = n.parse().map_err(|_| ParseError {
        line: lno,
        message: format!("bad slot `{s}`"),
    })?;
    check_count(lno, "frame size", idx.saturating_add(1))?;
    func.frame_mut().reserve_slots(idx + 1);
    Ok(FrameSlot::from_index(idx))
}

fn parse_memkind(lno: usize, s: &str) -> Result<(MemKind, &str), ParseError> {
    for (kind, name) in [
        (MemKind::Data, "data"),
        (MemKind::Spill, "spill"),
        (MemKind::CalleeSave, "csave"),
    ] {
        if let Some(rest) = s.strip_prefix(name) {
            return Ok((kind, rest.trim_start()));
        }
    }
    err(lno, format!("bad memory kind in `{s}`"))
}

fn parse_binop(lno: usize, s: &str) -> Result<BinOp, ParseError> {
    Ok(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        _ => return err(lno, format!("unknown operation `{s}`")),
    })
}

fn parse_cond(lno: usize, s: &str) -> Result<Cond, ParseError> {
    Ok(match s {
        "eq" => Cond::Eq,
        "ne" => Cond::Ne,
        "lt" => Cond::Lt,
        "le" => Cond::Le,
        "gt" => Cond::Gt,
        "ge" => Cond::Ge,
        _ => return err(lno, format!("unknown condition `{s}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::function_to_string;
    use crate::verify::{verify_function, RegDiscipline};

    const SAMPLE: &str = r#"
func @demo(1) {
  frame 2
block A:
  v0 = mov r1
  v1 = add v0, 5
  store.data v1, slot0
  br lt v0, v1, C, B
block B:
  [csave] store.csave r11, slot1
  jmp C
block C:
  v2 = load.data slot0
  r0 = mov v2
  ret r0
}
"#;

    #[test]
    fn parses_and_roundtrips() {
        let f = parse_function(SAMPLE).expect("parse failed");
        assert_eq!(f.name(), "demo");
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.num_params(), 1);
        assert!(verify_function(&f, RegDiscipline::Virtual).is_empty());
        let printed = function_to_string(&f);
        let f2 = parse_function(&printed).expect("reparse failed");
        assert_eq!(function_to_string(&f2), printed);
    }

    #[test]
    fn origin_tags_roundtrip() {
        let f = parse_function(SAMPLE).unwrap();
        let b = f.block_ids().nth(1).unwrap();
        assert_eq!(f.block(b).insts[0].origin, Origin::CalleeSave);
    }

    #[test]
    fn parses_module_with_calls() {
        let text = r#"
module demo
func @main(0) {
block entry:
  v0 = li 3
  r1 = mov v0
  r0 = call @helper(r1)
  v1 = mov r0
  r0 = mov v1
  ret r0
}
func @helper(1) {
block entry:
  v0 = mov r1
  r0 = call ext:4(v0)
  v1 = mov r0
  r0 = mov v1
  ret r0
}
"#;
        let m = parse_module(text).expect("module parse failed");
        assert_eq!(m.num_funcs(), 2);
        assert_eq!(m.name(), "demo");
        let main = m.func(m.func_by_name("main").unwrap());
        let has_call = main
            .block_ids()
            .flat_map(|b| main.block(b).insts.clone())
            .any(|i| {
                matches!(
                    i.kind,
                    InstKind::Call {
                        callee: Callee::Func(_),
                        ..
                    }
                )
            });
        assert!(has_call);
    }

    #[test]
    fn reports_unknown_block_with_line() {
        let text = "func @f(0) {\nblock A:\n  jmp NOPE\n}\n";
        let e = parse_function(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("NOPE"));
    }

    #[test]
    fn reports_bad_instruction() {
        let text = "func @f(0) {\nblock A:\n  frobnicate\n}\n";
        let e = parse_function(text).unwrap_err();
        assert!(e.message.contains("unrecognized"));
    }

    /// One assertion per error branch: every rejection carries the right
    /// line number and a message naming the offending text.
    #[test]
    fn every_error_branch_reports_line_and_context() {
        let wrap = |inst: &str| format!("func @f(0) {{\nblock A:\n  {inst}\n  ret\n}}\n");
        let many_blocks = format!(
            "func @f(0) {{\n{}  ret\n}}\n",
            (0..=MAX_COUNT)
                .map(|i| format!("block b{i}:\n"))
                .collect::<String>()
        );
        let cases: &[(&str, usize, &str)] = &[
            // Header errors.
            ("func @f 0) {\nblock A:\n  ret\n}\n", 1, "expected `func"),
            ("func @f(x) {\nblock A:\n  ret\n}\n", 1, "parameter count"),
            ("func @f(0)\nblock A:\n  ret\n}\n", 1, "expected `{`"),
            // Body / structure errors.
            ("func @f(0) {\n  frame x\nblock A:\n  ret\n}\n", 2, "frame"),
            ("func @f(0) {\n  vregs x\nblock A:\n  ret\n}\n", 2, "vreg"),
            // Counts past the limit, or past `u32`, never reach the IR.
            (
                "func @f(0) {\n  vregs 99999999999\nblock A:\n  ret\n}\n",
                2,
                "vreg count 99999999999 exceeds the limit",
            ),
            (
                "func @f(0) {\n  vregs 32769\nblock A:\n  ret\n}\n",
                2,
                "vreg count 32769 exceeds the limit of 32768",
            ),
            (
                "func @f(0) {\n  frame 4294967296\nblock A:\n  ret\n}\n",
                2,
                "frame size 4294967296 exceeds the limit",
            ),
            ("func @f(0) {\n  v0 = li 1\n}\n", 2, "outside any block"),
            // One block past the limit, rejected at its label.
            (
                many_blocks.as_str(),
                32_770,
                "block count 32769 exceeds the limit of 32768",
            ),
            // A repeated label would send both blocks' branches to one.
            (
                "func @f(0) {\nblock A:\n  jmp A\nblock A:\n  ret\n}\n",
                4,
                "duplicate block label `A` (first defined on line 2)",
            ),
            ("func @f(0) {\nblock A:\n  ret\n", 0, "end of input"),
        ];
        for (text, line, needle) in cases {
            let e = parse_function(text).unwrap_err();
            assert_eq!(e.line, *line, "line for {text:?} ({e})");
            assert!(e.message.contains(needle), "{e} lacks {needle:?}");
        }
        let inst_cases: &[(&str, &str)] = &[
            ("br lt v0, v1, B", "expected `br cond"),
            ("br xx v0, v1, A, A", "unknown condition"),
            ("store.data v0", "expected `store.kind"),
            ("store.frob v0, slot0", "bad memory kind"),
            ("v0 = load.data slotx", "bad slot `slotx`"),
            (
                "v0 = load.data slot32768",
                "frame size 32769 exceeds the limit",
            ),
            (
                "v4294967296 = li 1",
                "vreg count 4294967297 exceeds the limit",
            ),
            ("v0 = mov v32768", "vreg count 32769 exceeds the limit"),
            ("v0 = li banana", "bad immediate `banana`"),
            ("v0 = mov q3", "bad register `q3`"),
            ("v0 = add v1", "expected two operands"),
            ("v0 = frob v1, v2", "unknown operation `frob`"),
            ("v0 = call nowhere(v1)", "bad call target"),
            ("v0 = call @nope(v1)", "unknown function `@nope`"),
            ("v0 = call ext:x(v1)", "bad external id"),
            ("v0 = call @0 v1", "expected `(` in call"),
            ("v0 = call @0(v1", "expected `)` in call"),
            ("jmp NOWHERE", "unknown block `NOWHERE`"),
        ];
        for (inst, needle) in inst_cases {
            let e = parse_function(&wrap(inst)).unwrap_err();
            assert_eq!(e.line, 3, "line for {inst:?} ({e})");
            assert!(e.message.contains(needle), "{e} lacks {needle:?}");
        }
        // Module-level: stray line outside any function.
        let e = parse_module("module m\nwat\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unexpected line"));
        // A repeated function name, even with an error in the first body:
        // rejected at the second header, naming the first.
        let body = "func @f(0) {\n  vregs 1\nblock A:\n  ret v0\n  v0 = li 1\n}\n";
        let e = parse_module(&format!("module m\n{body}{body}")).unwrap_err();
        assert_eq!(e.line, 8, "{e}");
        assert!(
            e.message
                .contains("duplicate function `@f` (first defined on line 2)"),
            "{e}"
        );
        // A call to a function id outside the module parses; the
        // verifier's error maps to the call's line, not its block's.
        let (m, map) = parse_module_traced(
            "module m\nfunc @f(0) {\nblock A:\n  v0 = li 1\n  call @99()\n  ret\n}\n",
        )
        .expect("parses");
        let errors = crate::verify::verify_module(&m, crate::RegDiscipline::Virtual);
        let bad = errors
            .iter()
            .find(|e| matches!(e, crate::verify::VerifyError::BadCallee { .. }))
            .expect("bad callee reported");
        assert_eq!(map.line_of(bad), Some(5), "{bad}");
    }

    #[test]
    fn display_carries_line_numbers() {
        let e = parse_function("func @f(0) {\nblock A:\n  jmp NOPE\n}\n").unwrap_err();
        let shown = e.to_string();
        assert!(shown.starts_with("line 3:"), "{shown}");
    }

    #[test]
    fn source_map_resolves_instructions_blocks_and_headers() {
        let text = "module m\n\nfunc @f(0) {\n  frame 1\nblock A:\n  v0 = li 1\n  \
                    store.data v0, slot0\n  ret\n}\n";
        let (m, map) = parse_module_traced(text).expect("parses");
        assert_eq!(m.num_funcs(), 1);
        let a = BlockId::from_index(0);
        assert_eq!(map.line("f", Some(a), Some(0)), Some(6));
        assert_eq!(map.line("f", Some(a), Some(2)), Some(8));
        // Out-of-range instruction falls back to the block label line.
        assert_eq!(map.line("f", Some(a), Some(99)), Some(5));
        // No block falls back to the function header.
        assert_eq!(map.line("f", None, None), Some(3));
        assert_eq!(map.line("nope", None, None), None);
        // line_of routes a verifier error through the same lookup.
        let err = crate::verify::VerifyError::BadSlot {
            func: "f".into(),
            block: a,
            index: 1,
        };
        assert_eq!(map.line_of(&err), Some(7));
    }
}
