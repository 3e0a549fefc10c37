//! Operand parsing: registers, immediates, and memory operands.

use std::collections::HashMap;

use super::Symbol;
use crate::error::AsmError;
use crate::reg::{FReg, Reg};

/// Parses an integer register name: `rN` or an alias (`zero`, `sp`, `fp`,
/// `ra`).
pub(crate) fn parse_reg(tok: &str, line: u32) -> Result<Reg, AsmError> {
    let t = tok.trim();
    match t {
        "zero" => return Ok(Reg::ZERO),
        "sp" => return Ok(Reg::SP),
        "fp" => return Ok(Reg::FP),
        "ra" => return Ok(Reg::RA),
        _ => {}
    }
    if let Some(num) = t.strip_prefix('r') {
        if let Ok(n) = num.parse::<u8>() {
            if (n as usize) < crate::reg::NUM_REGS {
                return Ok(Reg::new(n));
            }
        }
    }
    Err(AsmError::new(line, format!("bad integer register `{t}`")))
}

/// Parses an FP register name: `fN`.
pub(crate) fn parse_freg(tok: &str, line: u32) -> Result<FReg, AsmError> {
    let t = tok.trim();
    if let Some(num) = t.strip_prefix('f') {
        if let Ok(n) = num.parse::<u8>() {
            if (n as usize) < crate::reg::NUM_REGS {
                return Ok(FReg::new(n));
            }
        }
    }
    Err(AsmError::new(line, format!("bad fp register `{t}`")))
}

/// Parses a signed immediate: decimal or `0x` hexadecimal, optional sign.
pub(crate) fn parse_imm(tok: &str, line: u32) -> Result<i64, AsmError> {
    let t = tok.trim();
    let (neg, rest) = match t.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let parsed = if let Some(hex) = rest.strip_prefix("0x").or_else(|| rest.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else {
        rest.parse::<i64>()
    };
    match parsed {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => Err(AsmError::new(line, format!("bad immediate `{t}`"))),
    }
}

/// Parses a memory operand into `(base, offset)`.
///
/// Accepted forms:
/// * `off(rN)` — register base with signed displacement;
/// * `(rN)` — register base, zero displacement;
/// * `label` — absolute data address with `r0` base;
/// * `label+imm` / `label-imm` — displaced data address with `r0` base.
pub(crate) fn parse_mem(
    tok: &str,
    symbols: &HashMap<String, Symbol>,
    line: u32,
) -> Result<(Reg, i64), AsmError> {
    let t = tok.trim();
    if let Some(open) = t.find('(') {
        let close = t
            .rfind(')')
            .ok_or_else(|| AsmError::new(line, format!("unclosed `(` in `{t}`")))?;
        if close != t.len() - 1 || close < open {
            return Err(AsmError::new(
                line,
                format!("malformed memory operand `{t}`"),
            ));
        }
        let base = parse_reg(&t[open + 1..close], line)?;
        let off_str = t[..open].trim();
        let offset = if off_str.is_empty() {
            0
        } else {
            parse_imm(off_str, line)?
        };
        return Ok((base, offset));
    }
    // Bare symbol, possibly with +/- displacement.
    let (name, disp) = match t.find(['+', '-']) {
        // A leading '-' would make the name empty — fall through to error.
        Some(0) | None => (t, 0),
        Some(pos) => {
            let d = parse_imm(&t[pos..], line)?;
            (t[..pos].trim_end(), d)
        }
    };
    match symbols.get(name) {
        Some(Symbol::Data(addr)) => Ok((Reg::ZERO, *addr as i64 + disp)),
        Some(Symbol::Text(_)) => Err(AsmError::new(
            line,
            format!("`{name}` is a text label, expected data"),
        )),
        None => Err(AsmError::new(line, format!("bad memory operand `{t}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DATA_BASE;

    fn syms() -> HashMap<String, Symbol> {
        let mut m = HashMap::new();
        m.insert("buf".to_string(), Symbol::Data(DATA_BASE + 32));
        m.insert("fun".to_string(), Symbol::Text(4));
        m
    }

    #[test]
    fn registers_and_aliases() {
        assert_eq!(parse_reg("r0", 1).unwrap(), Reg::ZERO);
        assert_eq!(parse_reg("r31", 1).unwrap(), Reg::RA);
        assert_eq!(parse_reg("sp", 1).unwrap(), Reg::SP);
        assert_eq!(parse_reg("zero", 1).unwrap(), Reg::ZERO);
        assert!(parse_reg("r32", 1).is_err());
        assert!(parse_reg("x5", 1).is_err());
    }

    #[test]
    fn fregs() {
        assert_eq!(parse_freg("f0", 1).unwrap(), FReg::new(0));
        assert!(parse_freg("f32", 1).is_err());
        assert!(parse_freg("r3", 1).is_err());
    }

    #[test]
    fn immediates() {
        assert_eq!(parse_imm("42", 1).unwrap(), 42);
        assert_eq!(parse_imm("-42", 1).unwrap(), -42);
        assert_eq!(parse_imm("+7", 1).unwrap(), 7);
        assert_eq!(parse_imm("0x10", 1).unwrap(), 16);
        assert_eq!(parse_imm("0X10", 1).unwrap(), 16);
        assert!(parse_imm("ten", 1).is_err());
        assert!(parse_imm("", 1).is_err());
    }

    #[test]
    fn mem_register_forms() {
        let s = syms();
        assert_eq!(parse_mem("8(r2)", &s, 1).unwrap(), (Reg::new(2), 8));
        assert_eq!(parse_mem("-16(sp)", &s, 1).unwrap(), (Reg::SP, -16));
        assert_eq!(parse_mem("(r9)", &s, 1).unwrap(), (Reg::new(9), 0));
        assert!(parse_mem("8(r2", &s, 1).is_err());
        assert!(parse_mem("8)r2(", &s, 1).is_err());
    }

    #[test]
    fn mem_symbol_forms() {
        let s = syms();
        assert_eq!(
            parse_mem("buf", &s, 1).unwrap(),
            (Reg::ZERO, (DATA_BASE + 32) as i64)
        );
        assert_eq!(
            parse_mem("buf+8", &s, 1).unwrap(),
            (Reg::ZERO, (DATA_BASE + 40) as i64)
        );
        assert_eq!(
            parse_mem("buf-8", &s, 1).unwrap(),
            (Reg::ZERO, (DATA_BASE + 24) as i64)
        );
        assert!(parse_mem("fun", &s, 1).is_err());
        assert!(parse_mem("missing", &s, 1).is_err());
    }
}
