//! Declarative scenario DSL: `.scn` files.
//!
//! A `.scn` file is a TOML-subset document describing a traffic world —
//! road geometry (or one of the builtin highway maps), scripted NPC
//! vehicles with phase plans (cut-in, cut-out, stop-and-go, merges),
//! per-segment friction bands, and the adversarial road-patch placement.
//! Files compile into the same [`ScenarioSetup`] the hard-coded S1–S6
//! constructors produce, so every consumer (campaign runner, fuzzer,
//! serve daemon, fabric coordinator) loads them interchangeably.
//!
//! Numeric fields accept either a bare number or a quoted *expression*
//! over `+ - * /`, parentheses, named variables, and four functions:
//!
//! * `mph(x)` — miles-per-hour to m/s,
//! * `gauss(std)` — zero-mean gaussian draw from the run's RNG stream,
//! * `uniform(lo, hi)` — uniform draw in `[lo, hi)`,
//! * `pos(near, far)` — selects by the run's [`InitialPosition`].
//!
//! Expressions are evaluated in a **fixed document order** (road first —
//! it never draws — then `ego_start_s`, `ego_speed`, each `[vars]` entry
//! in order, each `[[npc]]`'s `s`/`d`/`speed` then its phases, then
//! `[patch]`), delegating every draw to [`DeterministicRng`], so a DSL
//! scenario that mirrors a hard-coded constructor's draw order is
//! *bit-identical* to it.
//!
//! The text is split into tables by the workspace's one text reader
//! ([`adas_codec::text`], shared with fuzz repro files), and each spec is
//! built directly from its table: a duplicate key, an unknown key or a
//! missing one is reported at its own line (or its table's header).
//! Parsing never panics: malformed input yields a typed [`ScnError`]
//! carrying the offending line number.

use crate::scenario::{InitialPosition, ScenarioId, ScenarioSetup};
use adas_codec::text::{keyword_of, quote, Document, Entry, Table, Value};
use adas_codec::Fingerprint;
use adas_simulator::{
    units::mph, DeterministicRng, FrictionZone, Npc, NpcBehavior, NpcPlan, NpcTrigger, RoadBuilder,
    VehicleParams,
};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Maximum expression nesting depth — guards against stack overflow on
/// adversarial inputs like `((((((...`.
const MAX_EXPR_DEPTH: usize = 64;

/// Variable names bound by the compiler before user `[vars]` evaluate;
/// user variables may not shadow them (nor the function names).
const RESERVED_NAMES: [&str; 8] = [
    "gap",
    "lane_width",
    "ego_start_s",
    "ego_speed",
    "mph",
    "gauss",
    "uniform",
    "pos",
];

/// A parse or compile error, anchored to a 1-based line of the source
/// document: the text reader's error type.
pub use adas_codec::text::TextError as ScnError;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Func {
    Mph,
    Gauss,
    Uniform,
    Pos,
}

/// Each builtin function's name and arity.
const FUNCS: [(&str, Func, usize); 4] = [
    ("mph", Func::Mph, 1),
    ("gauss", Func::Gauss, 1),
    ("uniform", Func::Uniform, 2),
    ("pos", Func::Pos, 2),
];

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Num(f64),
    Var(String),
    Neg(Box<Expr>),
    Bin(Op, Box<Expr>, Box<Expr>),
    Call(Func, Vec<Expr>),
}

/// A numeric field holding a parsed expression plus its source text, so
/// documents re-render exactly as written.
#[derive(Debug, Clone)]
pub struct ExprField {
    expr: Expr,
    src: String,
    quoted: bool,
    line: usize,
}

impl PartialEq for ExprField {
    /// Line numbers are presentation, not content — two fields are equal
    /// when their expression and source text agree, wherever they sit.
    fn eq(&self, other: &Self) -> bool {
        self.expr == other.expr && self.src == other.src && self.quoted == other.quoted
    }
}

impl ExprField {
    /// A bare literal field (used when synthesising documents in code).
    #[must_use]
    pub fn number(value: f64) -> Self {
        Self {
            expr: Expr::Num(value),
            src: format!("{value:?}"),
            quoted: false,
            line: 0,
        }
    }

    /// A quoted expression field, parsed from `src`.
    pub fn expression(src: &str) -> Result<Self, ScnError> {
        let expr = parse_expression(src, 0)?;
        Ok(Self {
            expr,
            src: src.to_string(),
            quoted: true,
            line: 0,
        })
    }

    /// The source text as written in the document.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.src
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Num(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
}

fn tokenize(src: &str, line: usize) -> Result<Vec<Token>, ScnError> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' | '-' | '*' | '/' | '(' | ')' | ',' => {
                tokens.push(match c {
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '*' => Token::Star,
                    '/' => Token::Slash,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    _ => Token::Comma,
                });
                i += 1;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len() && matches!(bytes[i] as char, '0'..='9' | '.') {
                    i += 1;
                }
                // Optional exponent: e[+-]?digits.
                if i < bytes.len() && matches!(bytes[i] as char, 'e' | 'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && matches!(bytes[j] as char, '+' | '-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let value: f64 = text
                    .parse()
                    .map_err(|_| ScnError::new(line, format!("malformed number `{text}`")))?;
                if !value.is_finite() {
                    return Err(ScnError::new(line, format!("non-finite number `{text}`")));
                }
                tokens.push(Token::Num(value));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, 'a'..='z' | 'A'..='Z' | '0'..='9' | '_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(src[start..i].to_string()));
            }
            other => {
                return Err(ScnError::new(
                    line,
                    format!("unexpected character `{other}` in expression"),
                ));
            }
        }
    }
    Ok(tokens)
}

struct ExprParser<'a> {
    tokens: &'a [Token],
    pos: usize,
    line: usize,
}

impl ExprParser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), ScnError> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            _ => Err(ScnError::new(self.line, format!("expected {what}"))),
        }
    }

    fn additive(&mut self, depth: usize) -> Result<Expr, ScnError> {
        self.check_depth(depth)?;
        let mut lhs = self.multiplicative(depth + 1)?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => Op::Add,
                Some(Token::Minus) => Op::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative(depth + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self, depth: usize) -> Result<Expr, ScnError> {
        self.check_depth(depth)?;
        let mut lhs = self.unary(depth + 1)?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => Op::Mul,
                Some(Token::Slash) => Op::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary(depth + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self, depth: usize) -> Result<Expr, ScnError> {
        self.check_depth(depth)?;
        if matches!(self.peek(), Some(Token::Minus)) {
            self.pos += 1;
            return Ok(Expr::Neg(Box::new(self.unary(depth + 1)?)));
        }
        self.primary(depth + 1)
    }

    fn primary(&mut self, depth: usize) -> Result<Expr, ScnError> {
        self.check_depth(depth)?;
        match self.bump().cloned() {
            Some(Token::Num(v)) => Ok(Expr::Num(v)),
            Some(Token::LParen) => {
                let inner = self.additive(depth + 1)?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.pos += 1;
                    let Some(&(_, func, arity)) = FUNCS.iter().find(|f| f.0 == name) else {
                        return Err(ScnError::new(
                            self.line,
                            format!("unknown function `{name}`"),
                        ));
                    };
                    let mut args = Vec::new();
                    if matches!(self.peek(), Some(Token::RParen)) {
                        self.pos += 1;
                    } else {
                        loop {
                            args.push(self.additive(depth + 1)?);
                            match self.bump() {
                                Some(Token::Comma) => continue,
                                Some(Token::RParen) => break,
                                _ => {
                                    return Err(ScnError::new(
                                        self.line,
                                        "expected `,` or `)` in argument list",
                                    ));
                                }
                            }
                        }
                    }
                    if args.len() != arity {
                        return Err(ScnError::new(
                            self.line,
                            format!("`{name}` takes {arity} argument(s), got {}", args.len()),
                        ));
                    }
                    Ok(Expr::Call(func, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            _ => Err(ScnError::new(self.line, "expected a value in expression")),
        }
    }

    fn check_depth(&self, depth: usize) -> Result<(), ScnError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(ScnError::new(self.line, "expression too deeply nested"));
        }
        Ok(())
    }
}

fn parse_expression(src: &str, line: usize) -> Result<Expr, ScnError> {
    let tokens = tokenize(src, line)?;
    if tokens.is_empty() {
        return Err(ScnError::new(line, "empty expression"));
    }
    let mut p = ExprParser {
        tokens: &tokens,
        pos: 0,
        line,
    };
    let expr = p.additive(0)?;
    if p.pos != tokens.len() {
        return Err(ScnError::new(
            line,
            "trailing tokens after expression".to_string(),
        ));
    }
    Ok(expr)
}

/// Evaluation context: the bound variables so far, the run's RNG stream,
/// and the position used by `pos(near, far)`.
struct EvalContext<'a> {
    vars: Vec<(String, f64)>,
    rng: &'a mut DeterministicRng,
    position: InitialPosition,
}

impl EvalContext<'_> {
    fn lookup(&self, name: &str) -> Option<f64> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn eval(&mut self, expr: &Expr) -> Result<f64, String> {
        match expr {
            Expr::Num(v) => Ok(*v),
            Expr::Var(name) => self
                .lookup(name)
                .ok_or_else(|| format!("unknown variable `{name}`")),
            Expr::Neg(inner) => Ok(-self.eval(inner)?),
            Expr::Bin(op, lhs, rhs) => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                Ok(match op {
                    Op::Add => l + r,
                    Op::Sub => l - r,
                    Op::Mul => l * r,
                    Op::Div => l / r,
                })
            }
            Expr::Call(func, args) => match func {
                Func::Mph => Ok(mph(self.eval(&args[0])?)),
                Func::Gauss => {
                    let std = self.eval(&args[0])?;
                    Ok(self.rng.gaussian(std))
                }
                Func::Uniform => {
                    let lo = self.eval(&args[0])?;
                    let hi = self.eval(&args[1])?;
                    Ok(self.rng.uniform(lo, hi))
                }
                Func::Pos => {
                    // Both arms evaluate (they are literals in practice);
                    // the draw-free guarantee is documented, not enforced.
                    let near = self.eval(&args[0])?;
                    let far = self.eval(&args[1])?;
                    Ok(match self.position {
                        InitialPosition::Near => near,
                        InitialPosition::Far => far,
                    })
                }
            },
        }
    }

    fn eval_field(&mut self, field: &ExprField) -> Result<f64, ScnError> {
        let value = self
            .eval(&field.expr)
            .map_err(|e| ScnError::new(field.line, format!("in `{}`: {e}", field.src)))?;
        if !value.is_finite() {
            return Err(ScnError::new(
                field.line,
                format!("`{}` evaluated to a non-finite value", field.src),
            ));
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Document model
// ---------------------------------------------------------------------------

/// Which road geometry the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoadKind {
    /// The builtin highway paired with the run's [`InitialPosition`]
    /// (straight for Near, curvy for Far) — what S1–S6 use.
    Position,
    /// A single straight of `length` metres.
    Straight,
    /// The builtin curvy-highway pattern truncated at `length` metres.
    Curvy,
    /// Explicit `[[road.segment]]` entries.
    Segments,
}

/// Road description from the `[road]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadSpec {
    /// Geometry family.
    pub kind: RoadKind,
    /// Total length for `straight`/`curvy`, metres.
    pub length: Option<f64>,
    /// Lane width override, metres.
    pub lane_width: Option<f64>,
    /// Lane count override.
    pub lane_count: Option<u8>,
    /// Explicit segments for `kind = "segments"`.
    pub segments: Vec<SegmentSpec>,
}

/// One `[[road.segment]]` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSpec {
    /// Segment length, metres.
    pub length: f64,
    /// Signed arc radius, metres (positive turns left). Exclusive with
    /// `curvature`.
    pub radius: Option<f64>,
    /// Signed curvature 1/R, 1/m. Exclusive with `radius`.
    pub curvature: Option<f64>,
    /// Friction multiplier over this segment; `1.0`/absent means dry base.
    pub friction: Option<f64>,
}

/// One `[[npc]]` entry: spawn state plus scripted phases.
#[derive(Debug, Clone, PartialEq)]
pub struct NpcSpec {
    /// Spawn arc length, metres.
    pub s: ExprField,
    /// Spawn lateral offset, metres.
    pub d: ExprField,
    /// Spawn (and initial cruise) speed, m/s.
    pub speed: ExprField,
    /// Ordered phases.
    pub phases: Vec<PhaseSpec>,
}

/// Phase trigger kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Fires at the start of the run.
    Immediately,
    /// Fires when simulation time reaches the threshold, seconds.
    AtTime,
    /// Fires when the bumper gap to the ego drops below the threshold, m.
    GapBelow,
}

/// One `[[npc.phase]]` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Activation condition.
    pub trigger: TriggerKind,
    /// Trigger threshold; `None` only for `immediately`.
    pub threshold: Option<ExprField>,
    /// What the NPC does once triggered.
    pub behavior: BehaviorSpec,
}

/// Phase behaviour with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum BehaviorSpec {
    /// Track a target speed.
    SetSpeed {
        /// Target speed, m/s.
        target: ExprField,
        /// Accel/decel magnitude used to reach it, m/s².
        rate: ExprField,
    },
    /// Brake to a standstill.
    Stop {
        /// Braking deceleration magnitude, m/s².
        decel: ExprField,
    },
    /// Move laterally to a target offset.
    MoveLateral {
        /// Target lateral offset, metres.
        target_d: ExprField,
        /// Manoeuvre duration, seconds.
        duration: ExprField,
    },
}

/// One standalone `[[friction]]` band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneSpec {
    /// Band start arc length, metres.
    pub start_s: f64,
    /// Band end arc length (exclusive), metres.
    pub end_s: f64,
    /// Friction multiplier inside the band.
    pub scale: f64,
}

/// A parsed `.scn` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDoc {
    /// Scenario name (e.g. `"S1"` or `"platoon-stop-and-go"`).
    pub name: String,
    /// One-line human description (may be empty).
    pub summary: String,
    /// Road geometry.
    pub road: RoadSpec,
    /// Ego spawn arc length.
    pub ego_start_s: ExprField,
    /// Ego spawn/cruise speed, m/s.
    pub ego_speed: ExprField,
    /// Named intermediate values, evaluated in order (draws happen here).
    pub vars: Vec<(String, ExprField)>,
    /// Scripted traffic.
    pub npcs: Vec<NpcSpec>,
    /// Road-patch arc length; absent means "far beyond the drive" (no
    /// draws are consumed).
    pub patch_start_s: Option<ExprField>,
    /// Standalone friction bands (appended after segment-derived bands).
    pub zones: Vec<ZoneSpec>,
}

// ---------------------------------------------------------------------------
// Document parsing
// ---------------------------------------------------------------------------

/// The behaviour parameters a `[[npc.phase]]` may carry.
const PHASE_PARAMS: [&str; 5] = ["target", "rate", "decel", "target_d", "duration"];

/// A bare, finite number.
fn number(entry: &Entry) -> Result<f64, ScnError> {
    let v: f64 = entry.parse("a number")?;
    if !v.is_finite() {
        return Err(ScnError::new(entry.line, "number must be finite"));
    }
    Ok(v)
}

/// A numeric field: a bare number or a quoted expression.
fn expr_field(entry: &Entry) -> Result<ExprField, ScnError> {
    let (expr, src, quoted) = match &entry.value {
        Value::Bare(text) => (Expr::Num(number(entry)?), text, false),
        Value::Str(src) => (parse_expression(src, entry.line)?, src, true),
    };
    Ok(ExprField {
        expr,
        src: src.clone(),
        quoted,
        line: entry.line,
    })
}

/// `[road] kind` keywords.
const ROAD_KINDS: [(&str, RoadKind); 4] = [
    ("position", RoadKind::Position),
    ("straight", RoadKind::Straight),
    ("curvy", RoadKind::Curvy),
    ("segments", RoadKind::Segments),
];

/// `[[npc.phase]] trigger` keywords.
const TRIGGERS: [(&str, TriggerKind); 3] = [
    ("immediately", TriggerKind::Immediately),
    ("at_time", TriggerKind::AtTime),
    ("gap_below", TriggerKind::GapBelow),
];

fn is_ident(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn vars(table: &Table) -> Result<Vec<(String, ExprField)>, ScnError> {
    table
        .entries
        .iter()
        .map(|e| {
            if !is_ident(&e.key) {
                return Err(ScnError::new(
                    e.line,
                    format!("invalid variable name `{}`", e.key),
                ));
            }
            if RESERVED_NAMES.contains(&e.key.as_str()) {
                return Err(ScnError::new(
                    e.line,
                    format!("variable name `{}` is reserved", e.key),
                ));
            }
            Ok((e.key.clone(), expr_field(e)?))
        })
        .collect()
}

fn segment(table: &Table) -> Result<SegmentSpec, ScnError> {
    let mut f = table.fields();
    let length = number(f.required("length")?)?;
    let radius = f.optional("radius").map(number).transpose()?;
    let curvature = f.optional("curvature").map(number).transpose()?;
    let friction = f.optional("friction").map(number).transpose()?;
    f.finish()?;
    let fail = |message: &str| Err(ScnError::new(table.line, message));
    if length <= 0.0 {
        return fail("segment length must be positive");
    }
    if radius.is_some() && curvature.is_some() {
        return fail("segment takes `radius` or `curvature`, not both");
    }
    if radius == Some(0.0) {
        return fail("radius must be non-zero");
    }
    if curvature == Some(0.0) {
        return fail("zero curvature: omit the key for a straight segment");
    }
    if friction.is_some_and(|f| f <= 0.0 || f > 10.0) {
        return fail("segment friction must be in (0, 10]");
    }
    Ok(SegmentSpec {
        length,
        radius,
        curvature,
        friction,
    })
}

fn road(table: &Table, segment_tables: &[&Table]) -> Result<RoadSpec, ScnError> {
    let mut f = table.fields();
    let kind_entry = f.required("kind")?;
    let kind = kind_entry.keyword("road kind", &ROAD_KINDS)?;
    let length = f.optional("length").map(number).transpose()?;
    let lane_width = f.optional("lane_width").map(number).transpose()?;
    let lane_count = f.optional("lane_count").map(|e| {
        let n = number(e)?;
        if n.fract() != 0.0 || !(1.0..=8.0).contains(&n) {
            return Err(ScnError::new(
                e.line,
                "lane_count must be an integer in 1..=8",
            ));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(n as u8)
    });
    let lane_count = lane_count.transpose()?;
    f.finish()?;

    let fail = |line: usize, message: &str| Err(ScnError::new(line, message));
    let kind_line = kind_entry.line;
    if let Some(t) = segment_tables
        .first()
        .filter(|_| kind != RoadKind::Segments)
    {
        return fail(t.line, "[[road.segment]] requires `kind = \"segments\"`");
    }
    let segments: Vec<_> = segment_tables
        .iter()
        .map(|t| segment(t))
        .collect::<Result<_, _>>()?;
    match kind {
        RoadKind::Position => {
            if length.is_some() || lane_width.is_some() || lane_count.is_some() {
                return fail(kind_line, "`position` roads take no length/lane overrides");
            }
        }
        RoadKind::Straight | RoadKind::Curvy => match length {
            None => return fail(kind_line, "missing road `length`"),
            Some(len) if len <= 0.0 => return fail(kind_line, "road `length` must be positive"),
            Some(_) => {}
        },
        RoadKind::Segments => {
            if length.is_some() {
                return fail(
                    kind_line,
                    "`segments` roads derive length from their segments",
                );
            }
            if segments.is_empty() {
                return fail(
                    kind_line,
                    "`segments` road needs at least one [[road.segment]]",
                );
            }
        }
    }
    if lane_width.is_some_and(|w| w <= 0.0) {
        return fail(table.line, "lane_width must be positive");
    }
    Ok(RoadSpec {
        kind,
        length,
        lane_width,
        lane_count,
        segments,
    })
}

fn npc(table: &Table) -> Result<NpcSpec, ScnError> {
    let mut f = table.fields();
    let spec = NpcSpec {
        s: expr_field(f.required("s")?)?,
        d: expr_field(f.required("d")?)?,
        speed: expr_field(f.required("speed")?)?,
        phases: Vec::new(),
    };
    f.finish()?;
    Ok(spec)
}

fn phase(table: &Table) -> Result<PhaseSpec, ScnError> {
    let mut f = table.fields();
    let trigger = f.required("trigger")?.keyword("trigger", &TRIGGERS)?;
    let threshold = f.optional("threshold").map(expr_field).transpose()?;
    match (trigger, &threshold) {
        (TriggerKind::Immediately, Some(t)) => {
            return Err(ScnError::new(t.line, "`immediately` takes no `threshold`"));
        }
        (TriggerKind::AtTime | TriggerKind::GapBelow, None) => {
            return Err(ScnError::new(table.line, "phase missing `threshold`"));
        }
        _ => {}
    }
    let behavior_entry = f.required("behavior")?;
    let name = behavior_entry.string()?;
    let mut param = |key: &str| match f.optional(key) {
        Some(e) => expr_field(e),
        None => Err(ScnError::new(
            behavior_entry.line,
            format!("{name} missing `{key}`"),
        )),
    };
    let behavior = match name {
        "set_speed" => BehaviorSpec::SetSpeed {
            target: param("target")?,
            rate: param("rate")?,
        },
        "stop" => BehaviorSpec::Stop {
            decel: param("decel")?,
        },
        "move_lateral" => BehaviorSpec::MoveLateral {
            target_d: param("target_d")?,
            duration: param("duration")?,
        },
        other => {
            return Err(ScnError::new(
                behavior_entry.line,
                format!("unknown behavior `{other}`"),
            ));
        }
    };
    if let Some(e) = f
        .unused()
        .filter(|e| PHASE_PARAMS.contains(&e.key.as_str()))
    {
        return Err(ScnError::new(
            e.line,
            format!("`{}` is not a `{name}` parameter", e.key),
        ));
    }
    f.finish()?;
    Ok(PhaseSpec {
        trigger,
        threshold,
        behavior,
    })
}

fn zone(table: &Table) -> Result<ZoneSpec, ScnError> {
    let mut f = table.fields();
    let start_s = number(f.required("start_s")?)?;
    let end_s = number(f.required("end_s")?)?;
    let scale = number(f.required("scale")?)?;
    f.finish()?;
    let fail = |message: &str| Err(ScnError::new(table.line, message));
    if start_s < 0.0 || end_s <= start_s {
        return fail("friction band needs 0 <= start_s < end_s");
    }
    if scale <= 0.0 || scale > 10.0 {
        return fail("friction scale must be in (0, 10]");
    }
    Ok(ZoneSpec {
        start_s,
        end_s,
        scale,
    })
}

impl ScenarioDoc {
    /// Parses a `.scn` document. Never panics; every failure is a typed
    /// [`ScnError`] with the offending line number.
    pub fn parse(text: &str) -> Result<Self, ScnError> {
        let tables = Document::parse(text)?.into_sections()?;
        let (mut scenario, mut road_table, mut patch_start_s) = (None, None, None);
        let mut vars_list = Vec::new();
        let mut segments = Vec::new();
        let mut npcs: Vec<NpcSpec> = Vec::new();
        let mut zones = Vec::new();
        for table in &tables {
            match (table.name.as_str(), table.array) {
                ("scenario", false) => scenario = Some(table),
                ("vars", false) => vars_list = vars(table)?,
                ("road", false) => road_table = Some(table),
                ("road.segment", true) => segments.push(table),
                ("npc", true) => npcs.push(npc(table)?),
                ("npc.phase", true) => {
                    let Some(npc) = npcs.last_mut() else {
                        return Err(ScnError::new(
                            table.line,
                            "[[npc.phase]] before any [[npc]]",
                        ));
                    };
                    npc.phases.push(phase(table)?);
                }
                ("patch", false) => {
                    let mut f = table.fields();
                    patch_start_s = f.optional("start_s").map(expr_field).transpose()?;
                    f.finish()?;
                }
                ("friction", true) => zones.push(zone(table)?),
                _ => {
                    return Err(ScnError::new(
                        table.line,
                        format!("unknown section `{}`", table.header()),
                    ));
                }
            }
        }

        let scenario = scenario.ok_or_else(|| ScnError::new(1, "missing [scenario] section"))?;
        let mut f = scenario.fields();
        let name = f.required("name")?.string()?.to_owned();
        let summary = f.optional("summary").map(Entry::string).transpose()?;
        let ego_start_s = expr_field(f.required("ego_start_s")?)?;
        let ego_speed = expr_field(f.required("ego_speed")?)?;
        f.finish()?;
        let road_table = road_table.ok_or_else(|| ScnError::new(1, "missing [road] section"))?;
        let road = road(road_table, &segments)?;
        if npcs.is_empty() {
            return Err(ScnError::new(
                scenario.line,
                "scenario needs at least one [[npc]]",
            ));
        }
        Ok(Self {
            name,
            summary: summary.unwrap_or_default().to_owned(),
            road,
            ego_start_s,
            ego_speed,
            vars: vars_list,
            npcs,
            patch_start_s,
            zones,
        })
    }

    /// Renders the document back to canonical `.scn` text. The round trip
    /// `parse(render(doc)) == doc` holds for every parseable document.
    #[must_use]
    pub fn render(&self) -> String {
        fn field(out: &mut String, key: &str, f: &ExprField) {
            if f.quoted {
                let _ = writeln!(out, "{key} = {}", quote(&f.src));
            } else {
                let _ = writeln!(out, "{key} = {}", f.src);
            }
        }
        fn num(out: &mut String, key: &str, v: Option<f64>) {
            if let Some(v) = v {
                let _ = writeln!(out, "{key} = {v:?}");
            }
        }

        let mut out = String::new();
        out.push_str("[scenario]\n");
        let _ = writeln!(out, "name = {}", quote(&self.name));
        if !self.summary.is_empty() {
            let _ = writeln!(out, "summary = {}", quote(&self.summary));
        }
        field(&mut out, "ego_start_s", &self.ego_start_s);
        field(&mut out, "ego_speed", &self.ego_speed);

        out.push_str("\n[road]\n");
        let kind = keyword_of(&ROAD_KINDS, &self.road.kind);
        let _ = writeln!(out, "kind = \"{kind}\"");
        num(&mut out, "length", self.road.length);
        num(&mut out, "lane_width", self.road.lane_width);
        if let Some(n) = self.road.lane_count {
            let _ = writeln!(out, "lane_count = {n}");
        }
        for seg in &self.road.segments {
            out.push_str("\n[[road.segment]]\n");
            num(&mut out, "length", Some(seg.length));
            num(&mut out, "radius", seg.radius);
            num(&mut out, "curvature", seg.curvature);
            num(&mut out, "friction", seg.friction);
        }

        if !self.vars.is_empty() {
            out.push_str("\n[vars]\n");
            for (name, f) in &self.vars {
                field(&mut out, name, f);
            }
        }

        for npc in &self.npcs {
            out.push_str("\n[[npc]]\n");
            field(&mut out, "s", &npc.s);
            field(&mut out, "d", &npc.d);
            field(&mut out, "speed", &npc.speed);
            for phase in &npc.phases {
                out.push_str("\n[[npc.phase]]\n");
                let trigger = keyword_of(&TRIGGERS, &phase.trigger);
                let _ = writeln!(out, "trigger = \"{trigger}\"");
                if let Some(t) = &phase.threshold {
                    field(&mut out, "threshold", t);
                }
                match &phase.behavior {
                    BehaviorSpec::SetSpeed { target, rate } => {
                        out.push_str("behavior = \"set_speed\"\n");
                        field(&mut out, "target", target);
                        field(&mut out, "rate", rate);
                    }
                    BehaviorSpec::Stop { decel } => {
                        out.push_str("behavior = \"stop\"\n");
                        field(&mut out, "decel", decel);
                    }
                    BehaviorSpec::MoveLateral { target_d, duration } => {
                        out.push_str("behavior = \"move_lateral\"\n");
                        field(&mut out, "target_d", target_d);
                        field(&mut out, "duration", duration);
                    }
                }
            }
        }

        if let Some(p) = &self.patch_start_s {
            out.push_str("\n[patch]\n");
            field(&mut out, "start_s", p);
        }

        for z in &self.zones {
            out.push_str("\n[[friction]]\n");
            num(&mut out, "start_s", Some(z.start_s));
            num(&mut out, "end_s", Some(z.end_s));
            num(&mut out, "scale", Some(z.scale));
        }

        out
    }

    /// Compiles the document into a runnable [`ScenarioSetup`].
    ///
    /// Draw order (the bit-identity contract): the road builds first and
    /// never draws; then `ego_start_s`, `ego_speed`, each `[vars]` entry in
    /// document order (eagerly, even if unused), each NPC's `s`, `d`,
    /// `speed` then its phases (threshold before behaviour parameters),
    /// and finally `[patch] start_s`. An absent `[patch]` consumes no
    /// draws and places the patch far beyond any drive.
    pub fn compile(
        &self,
        id: ScenarioId,
        position: InitialPosition,
        rng: &mut DeterministicRng,
    ) -> Result<ScenarioSetup, ScnError> {
        // Road first: no randomness, so failures here cannot skew draws.
        let mut friction_zones = Vec::new();
        let length = || self.road.length.expect("validated at parse");
        let builder = match self.road.kind {
            RoadKind::Position => None,
            RoadKind::Straight => Some(RoadBuilder::straight_highway(length())),
            RoadKind::Curvy => Some(RoadBuilder::curvy_highway(length())),
            RoadKind::Segments => {
                let mut b = RoadBuilder::new();
                let mut cursor = 0.0;
                for seg in &self.road.segments {
                    b = match (seg.radius, seg.curvature) {
                        (Some(r), None) => b.arc(seg.length, r),
                        (None, Some(k)) => b.arc(seg.length, 1.0 / k),
                        (None, None) => b.straight(seg.length),
                        (Some(_), Some(_)) => unreachable!("validated at parse"),
                    };
                    if let Some(f) = seg.friction {
                        if f != 1.0 {
                            friction_zones.push(FrictionZone {
                                start_s: cursor,
                                end_s: cursor + seg.length,
                                scale: f,
                            });
                        }
                    }
                    cursor += seg.length;
                }
                Some(b)
            }
        };
        let road = match builder {
            None => position.road(),
            Some(mut b) => {
                if let Some(w) = self.road.lane_width {
                    b = b.lane_width(w);
                }
                if let Some(n) = self.road.lane_count {
                    b = b.lane_count(n);
                }
                b.build()
            }
        };
        for z in &self.zones {
            friction_zones.push(FrictionZone {
                start_s: z.start_s,
                end_s: z.end_s,
                scale: z.scale,
            });
        }

        let mut ctx = EvalContext {
            vars: vec![
                ("gap".to_string(), position.distance()),
                ("lane_width".to_string(), road.lane_width()),
            ],
            rng,
            position,
        };
        let ego_start_s = ctx.eval_field(&self.ego_start_s)?;
        ctx.vars.push(("ego_start_s".to_string(), ego_start_s));
        let ego_speed = ctx.eval_field(&self.ego_speed)?;
        ctx.vars.push(("ego_speed".to_string(), ego_speed));
        for (name, field) in &self.vars {
            let v = ctx.eval_field(field)?;
            ctx.vars.push((name.clone(), v));
        }

        let params = VehicleParams::sedan();
        let mut npcs = Vec::with_capacity(self.npcs.len());
        for spec in &self.npcs {
            let s = ctx.eval_field(&spec.s)?;
            let d = ctx.eval_field(&spec.d)?;
            let speed = ctx.eval_field(&spec.speed)?;
            let mut plan = NpcPlan::cruise();
            for phase in &spec.phases {
                let trigger = match phase.trigger {
                    TriggerKind::Immediately => NpcTrigger::Immediately,
                    TriggerKind::AtTime => NpcTrigger::AtTime(
                        ctx.eval_field(phase.threshold.as_ref().expect("validated"))?,
                    ),
                    TriggerKind::GapBelow => NpcTrigger::GapToEgoBelow(
                        ctx.eval_field(phase.threshold.as_ref().expect("validated"))?,
                    ),
                };
                let behavior = match &phase.behavior {
                    BehaviorSpec::SetSpeed { target, rate } => NpcBehavior::SetSpeed {
                        target: ctx.eval_field(target)?,
                        rate: ctx.eval_field(rate)?,
                    },
                    BehaviorSpec::Stop { decel } => NpcBehavior::Stop {
                        decel: ctx.eval_field(decel)?,
                    },
                    BehaviorSpec::MoveLateral { target_d, duration } => NpcBehavior::MoveLateral {
                        target_d: ctx.eval_field(target_d)?,
                        duration: ctx.eval_field(duration)?,
                    },
                };
                plan = plan.then(trigger, behavior);
            }
            npcs.push(Npc::new(params, s, d, speed, plan));
        }

        let patch_start_s = match &self.patch_start_s {
            Some(field) => ctx.eval_field(field)?,
            // Far beyond any drive; deliberately draw-free.
            None => 1.0e9,
        };

        Ok(ScenarioSetup {
            id,
            position,
            road,
            ego_start_s,
            ego_speed,
            npcs,
            patch_start_s,
            friction_zones,
        })
    }
}

// ---------------------------------------------------------------------------
// Builtin catalog
// ---------------------------------------------------------------------------

/// The six golden builtin scenario files, compiled into the binary.
pub const BUILTIN_SOURCES: [(&str, &str); 6] = [
    ("s1.scn", include_str!("../../../scenarios/builtin/s1.scn")),
    ("s2.scn", include_str!("../../../scenarios/builtin/s2.scn")),
    ("s3.scn", include_str!("../../../scenarios/builtin/s3.scn")),
    ("s4.scn", include_str!("../../../scenarios/builtin/s4.scn")),
    ("s5.scn", include_str!("../../../scenarios/builtin/s5.scn")),
    ("s6.scn", include_str!("../../../scenarios/builtin/s6.scn")),
];

/// The set of scenario documents every consumer builds runs from.
///
/// Defaults to the six golden builtin `.scn` files (bit-identical to the
/// historical hard-coded constructors); individual entries can be replaced
/// via `ADAS_SCENARIO="S1=path/to/file.scn,..."`.
#[derive(Debug, Clone)]
pub struct ScenarioCatalog {
    docs: Vec<ScenarioDoc>,
}

impl ScenarioCatalog {
    /// Parses the six compiled-in builtin documents.
    pub fn builtin() -> Result<Self, String> {
        let mut docs = Vec::with_capacity(6);
        for (file, src) in BUILTIN_SOURCES {
            docs.push(ScenarioDoc::parse(src).map_err(|e| format!("{file}: {e}"))?);
        }
        Ok(Self { docs })
    }

    /// The builtin catalog with `ADAS_SCENARIO` overrides applied.
    ///
    /// The variable holds comma-separated `SN=path` pairs; each file is
    /// parsed and validated (compiled for both positions with a throwaway
    /// RNG) before it replaces a builtin.
    pub fn from_env() -> Result<Self, String> {
        let mut catalog = Self::builtin()?;
        let Ok(spec) = std::env::var("ADAS_SCENARIO") else {
            return Ok(catalog);
        };
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((label, path)) = entry.split_once('=') else {
                return Err(format!("ADAS_SCENARIO entry `{entry}` is not `SN=path`"));
            };
            let label = label.trim();
            let id = ScenarioId::ALL
                .into_iter()
                .find(|s| s.label().eq_ignore_ascii_case(label))
                .ok_or_else(|| format!("ADAS_SCENARIO: unknown scenario `{label}`"))?;
            let path = path.trim();
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("ADAS_SCENARIO: cannot read `{path}`: {e}"))?;
            let doc = ScenarioDoc::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            for position in InitialPosition::ALL {
                let mut probe = DeterministicRng::from_seed(0);
                doc.compile(id, position, &mut probe)
                    .map_err(|e| format!("{path} ({position:?}): {e}"))?;
            }
            catalog.docs[id.index()] = doc;
        }
        Ok(catalog)
    }

    /// The process-wide catalog, initialised once from the environment.
    ///
    /// # Panics
    ///
    /// Panics on first use if a builtin fails to parse (a build defect) or
    /// an `ADAS_SCENARIO` override is invalid — misconfigured scenario
    /// files should fail loudly, not silently fall back.
    #[must_use]
    pub fn global() -> &'static ScenarioCatalog {
        static CATALOG: OnceLock<ScenarioCatalog> = OnceLock::new();
        CATALOG.get_or_init(|| {
            ScenarioCatalog::from_env()
                .unwrap_or_else(|e| panic!("scenario catalog failed to load: {e}"))
        })
    }

    /// The document for a scenario.
    #[must_use]
    pub fn doc(&self, id: ScenarioId) -> &ScenarioDoc {
        &self.docs[id.index()]
    }

    /// FNV-1a digest over the canonical renders of every document — the
    /// scenario-content component of campaign cache keys. Two catalogs
    /// agree exactly when every scenario they would compile agrees.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.docs
            .iter()
            .fold(Fingerprint::new(), |fp, doc| {
                // A 0 byte separates documents.
                fp.write_bytes(doc.render().as_bytes()).write_bytes(&[0])
            })
            .value()
    }

    /// Compiles a scenario into a runnable setup.
    ///
    /// # Panics
    ///
    /// Panics if the document fails to compile — catalog entries are
    /// validated at load, so this indicates a bug, not bad input.
    #[must_use]
    pub fn build(
        &self,
        id: ScenarioId,
        position: InitialPosition,
        rng: &mut DeterministicRng,
    ) -> ScenarioSetup {
        self.docs[id.index()]
            .compile(id, position, rng)
            .unwrap_or_else(|e| panic!("scenario {id} failed to compile: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
# A minimal two-vehicle world.
[scenario]
name = "mini"
ego_start_s = 10.0
ego_speed = "mph(50.0)"

[road]
kind = "straight"
length = 2000.0

[[npc]]
s = 80.0
d = 0.0
speed = "mph(30.0)"
"#;

    #[test]
    fn minimal_document_parses_and_compiles() {
        let doc = ScenarioDoc::parse(MINIMAL).expect("parses");
        assert_eq!(doc.name, "mini");
        let mut rng = DeterministicRng::from_seed(3);
        let setup = doc
            .compile(ScenarioId::S1, InitialPosition::Near, &mut rng)
            .expect("compiles");
        assert_eq!(setup.npcs.len(), 1);
        assert!((setup.ego_speed - mph(50.0)).abs() < 1e-12);
        assert!(setup.patch_start_s > 1.0e8, "absent patch sits far away");
        assert!(setup.friction_zones.is_empty());
    }

    #[test]
    fn roundtrip_render_parse_is_identity() {
        let doc = ScenarioDoc::parse(MINIMAL).unwrap();
        let rendered = doc.render();
        let reparsed = ScenarioDoc::parse(&rendered).expect("rendered text parses");
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn builtin_catalog_roundtrips() {
        for (file, src) in BUILTIN_SOURCES {
            let doc = ScenarioDoc::parse(src).unwrap_or_else(|e| panic!("{file}: {e}"));
            let reparsed = ScenarioDoc::parse(&doc.render()).expect("rendered builtin parses");
            assert_eq!(doc, reparsed, "{file} round-trips");
        }
    }

    #[test]
    fn catalog_digest_is_stable_and_content_sensitive() {
        let a = ScenarioCatalog::builtin().unwrap();
        let b = ScenarioCatalog::builtin().unwrap();
        assert_eq!(a.digest(), b.digest(), "digest is deterministic");
        let mut swapped = ScenarioCatalog::builtin().unwrap();
        swapped.docs[4] = ScenarioDoc::parse(MINIMAL).unwrap();
        assert_ne!(
            a.digest(),
            swapped.digest(),
            "digest tracks document content"
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "[scenario]\nname = \"x\"\nego_start_s = 1.0\nego_speed = oops\n";
        let err = ScenarioDoc::parse(bad).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("expected a number"), "{}", err.message);
    }

    #[test]
    fn duplicate_key_rejected() {
        let bad = "[scenario]\nname = \"x\"\nname = \"y\"\n";
        let err = ScenarioDoc::parse(bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate key"));
    }

    #[test]
    fn unknown_keys_are_reported_at_their_own_line() {
        let bad = MINIMAL.replace("ego_start_s = 10.0", "ego_start_s = 10.0\ncolour = \"red\"");
        let err = ScenarioDoc::parse(&bad).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("unknown key `colour` in [scenario]"));
        let phase = "\n[[npc.phase]]\ntrigger = \"immediately\"\nbehavior = \"stop\"\ndecel = 4.0\nrate = 1.0\n";
        let err = ScenarioDoc::parse(&format!("{MINIMAL}{phase}")).unwrap_err();
        assert_eq!(err.line, MINIMAL.lines().count() + 6);
        assert!(err.message.contains("`rate` is not a `stop` parameter"));
    }

    #[test]
    fn unknown_section_rejected() {
        let err = ScenarioDoc::parse("[wat]\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown section"));
    }

    #[test]
    fn unknown_function_rejected() {
        let bad = "[scenario]\nname = \"x\"\nego_start_s = \"rand(1.0)\"\n";
        let err = ScenarioDoc::parse(bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown function"));
    }

    #[test]
    fn deep_nesting_rejected_without_panic() {
        let src = format!(
            "[scenario]\nname = \"x\"\nego_start_s = \"{}1.0{}\"\n",
            "(".repeat(500),
            ")".repeat(500)
        );
        let err = ScenarioDoc::parse(&src).unwrap_err();
        assert!(err.message.contains("deeply nested"));
    }

    #[test]
    fn reserved_variable_names_rejected() {
        let bad = format!("{MINIMAL}\n[vars]\ngap = 1.0\n");
        let err = ScenarioDoc::parse(&bad).unwrap_err();
        assert!(err.message.contains("reserved"));
    }

    #[test]
    fn expression_draws_delegate_to_rng() {
        let src = MINIMAL.replace(
            "speed = \"mph(30.0)\"",
            "speed = \"mph(30.0) + gauss(0.1)\"",
        );
        let doc = ScenarioDoc::parse(&src).unwrap();
        let mut a = DeterministicRng::from_seed(9);
        let mut b = DeterministicRng::from_seed(9);
        let expected = mph(30.0) + b.gaussian(0.1);
        let setup = doc
            .compile(ScenarioId::S1, InitialPosition::Near, &mut a)
            .unwrap();
        assert_eq!(setup.npcs[0].state().v, expected);
    }

    #[test]
    fn segment_friction_becomes_zones() {
        let src = r#"
[scenario]
name = "icy"
ego_start_s = 0.0
ego_speed = "mph(50.0)"

[road]
kind = "segments"

[[road.segment]]
length = 500.0

[[road.segment]]
length = 200.0
radius = 450.0
friction = 0.5

[[npc]]
s = 80.0
d = 0.0
speed = "mph(30.0)"

[[friction]]
start_s = 900.0
end_s = 950.0
scale = 0.25
"#;
        let doc = ScenarioDoc::parse(src).unwrap();
        let mut rng = DeterministicRng::from_seed(1);
        let setup = doc
            .compile(ScenarioId::S1, InitialPosition::Near, &mut rng)
            .unwrap();
        assert_eq!(setup.friction_zones.len(), 2);
        assert_eq!(setup.friction_zones[0].start_s, 500.0);
        assert_eq!(setup.friction_zones[0].end_s, 700.0);
        assert_eq!(setup.friction_zones[1].scale, 0.25);
        assert!((setup.road.total_length() - 700.0).abs() < 1e-9);
    }
}
