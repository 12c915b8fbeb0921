//! HLS IR operation kinds.
//!
//! The operation vocabulary mirrors the scheduling-relevant subset of the XLS
//! IR: bit-vector arithmetic, logic, shifts, comparisons, selects and bit
//! manipulation. Attributes that affect the result width (slice bounds,
//! extension targets) are embedded in the kind so a node is fully described by
//! `(kind, operands)`.

use crate::value::BitVecValue;
use std::fmt;

/// The kind of an IR operation node.
///
/// # Examples
///
/// ```
/// use isdc_ir::OpKind;
///
/// assert_eq!(OpKind::Add.arity(), Some(2));
/// assert!(OpKind::Mul.is_arithmetic());
/// assert_eq!(OpKind::Concat.arity(), None); // n-ary
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A graph input with no operands.
    Param,
    /// A compile-time constant.
    Literal(BitVecValue),
    /// Wrapping addition of two equal-width operands.
    Add,
    /// Wrapping subtraction of two equal-width operands.
    Sub,
    /// Wrapping multiplication of two equal-width operands.
    Mul,
    /// Two's-complement negation.
    Neg,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT.
    Not,
    /// Logical shift left; second operand is the shift amount.
    Shll,
    /// Logical shift right; second operand is the shift amount.
    Shrl,
    /// Arithmetic shift right; second operand is the shift amount.
    Shra,
    /// Equality comparison (1-bit result).
    Eq,
    /// Inequality comparison (1-bit result).
    Ne,
    /// Unsigned less-than (1-bit result).
    Ult,
    /// Unsigned less-or-equal (1-bit result).
    Ule,
    /// Unsigned greater-than (1-bit result).
    Ugt,
    /// Unsigned greater-or-equal (1-bit result).
    Uge,
    /// Two-way select: operands are `(selector, on_true, on_false)`;
    /// the selector is 1 bit wide.
    Sel,
    /// Concatenation of all operands; the first operand forms the most
    /// significant bits.
    Concat,
    /// Extracts `width` bits starting at `start`.
    BitSlice {
        /// Least-significant extracted bit position.
        start: u32,
        /// Number of extracted bits.
        width: u32,
    },
    /// Zero-extension to `new_width` (must not be narrower than the operand).
    ZeroExt {
        /// The result width.
        new_width: u32,
    },
    /// Sign-extension to `new_width` (must not be narrower than the operand).
    SignExt {
        /// The result width.
        new_width: u32,
    },
    /// XOR-reduce all bits of the operand to a single bit.
    ReduceXor,
    /// OR-reduce all bits of the operand to a single bit.
    ReduceOr,
    /// AND-reduce all bits of the operand to a single bit.
    ReduceAnd,
}

impl OpKind {
    /// The fixed operand count, or `None` for variadic ops ([`OpKind::Concat`]).
    pub fn arity(&self) -> Option<usize> {
        use OpKind::*;
        match self {
            Param | Literal(_) => Some(0),
            Not
            | Neg
            | BitSlice { .. }
            | ZeroExt { .. }
            | SignExt { .. }
            | ReduceXor
            | ReduceOr
            | ReduceAnd => Some(1),
            Add | Sub | Mul | And | Or | Xor | Shll | Shrl | Shra | Eq | Ne | Ult | Ule | Ugt
            | Uge => Some(2),
            Sel => Some(3),
            Concat => None,
        }
    }

    /// True for ops whose gate-level implementation contains carry or partial
    /// product chains (the expensive datapath ops).
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Neg
                | OpKind::Ult
                | OpKind::Ule
                | OpKind::Ugt
                | OpKind::Uge
        )
    }

    /// True for pure wiring ops that synthesize to zero logic.
    pub fn is_free(&self) -> bool {
        matches!(
            self,
            OpKind::Param
                | OpKind::Literal(_)
                | OpKind::Concat
                | OpKind::BitSlice { .. }
                | OpKind::ZeroExt { .. }
                | OpKind::SignExt { .. }
        )
    }

    /// True if operand order does not affect the result.
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            OpKind::Add
                | OpKind::Mul
                | OpKind::And
                | OpKind::Or
                | OpKind::Xor
                | OpKind::Eq
                | OpKind::Ne
        )
    }

    /// The canonical mnemonic used by the text format.
    pub fn mnemonic(&self) -> &'static str {
        use OpKind::*;
        match self {
            Param => "param",
            Literal(_) => "literal",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Neg => "neg",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            Shll => "shll",
            Shrl => "shrl",
            Shra => "shra",
            Eq => "eq",
            Ne => "ne",
            Ult => "ult",
            Ule => "ule",
            Ugt => "ugt",
            Uge => "uge",
            Sel => "sel",
            Concat => "concat",
            BitSlice { .. } => "bit_slice",
            ZeroExt { .. } => "zero_ext",
            SignExt { .. } => "sign_ext",
            ReduceXor => "reduce_xor",
            ReduceOr => "reduce_or",
            ReduceAnd => "reduce_and",
        }
    }

    /// Computes the result width from operand widths, or an error message if
    /// the operand widths are inconsistent with this kind.
    pub fn infer_width(&self, operand_widths: &[u32]) -> Result<u32, String> {
        use OpKind::*;
        if let Some(arity) = self.arity() {
            if operand_widths.len() != arity {
                return Err(format!(
                    "{} expects {} operands, got {}",
                    self.mnemonic(),
                    arity,
                    operand_widths.len()
                ));
            }
        } else if operand_widths.is_empty() {
            return Err(format!("{} expects at least one operand", self.mnemonic()));
        }
        let same2 = |w: &[u32]| -> Result<u32, String> {
            if w[0] != w[1] {
                Err(format!("{} operand widths differ: {} vs {}", self.mnemonic(), w[0], w[1]))
            } else {
                Ok(w[0])
            }
        };
        match self {
            Param => Err("param width cannot be inferred".to_string()),
            Literal(v) => Ok(v.width()),
            Add | Sub | Mul | And | Or | Xor => same2(operand_widths),
            Neg | Not => Ok(operand_widths[0]),
            Shll | Shrl | Shra => Ok(operand_widths[0]),
            Eq | Ne | Ult | Ule | Ugt | Uge => same2(operand_widths).map(|_| 1),
            Sel => {
                if operand_widths[0] != 1 {
                    Err(format!("sel selector must be 1 bit, got {}", operand_widths[0]))
                } else if operand_widths[1] != operand_widths[2] {
                    Err(format!(
                        "sel arm widths differ: {} vs {}",
                        operand_widths[1], operand_widths[2]
                    ))
                } else {
                    Ok(operand_widths[1])
                }
            }
            Concat => Ok(operand_widths.iter().sum()),
            BitSlice { start, width } => {
                if start + width > operand_widths[0] {
                    Err(format!(
                        "bit_slice [{start}, {}) out of range for operand width {}",
                        start + width,
                        operand_widths[0]
                    ))
                } else if *width == 0 {
                    Err("bit_slice width must be positive".to_string())
                } else {
                    Ok(*width)
                }
            }
            ZeroExt { new_width } | SignExt { new_width } => {
                if *new_width < operand_widths[0] {
                    Err(format!(
                        "{} target width {} narrower than operand width {}",
                        self.mnemonic(),
                        new_width,
                        operand_widths[0]
                    ))
                } else {
                    Ok(*new_width)
                }
            }
            ReduceXor | ReduceOr | ReduceAnd => Ok(1),
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_covers_all_classes() {
        assert_eq!(OpKind::Param.arity(), Some(0));
        assert_eq!(OpKind::Not.arity(), Some(1));
        assert_eq!(OpKind::Add.arity(), Some(2));
        assert_eq!(OpKind::Sel.arity(), Some(3));
        assert_eq!(OpKind::Concat.arity(), None);
    }

    #[test]
    fn width_inference_binary() {
        assert_eq!(OpKind::Add.infer_width(&[8, 8]), Ok(8));
        assert!(OpKind::Add.infer_width(&[8, 9]).is_err());
        assert!(OpKind::Add.infer_width(&[8]).is_err());
    }

    #[test]
    fn width_inference_compare_is_one_bit() {
        assert_eq!(OpKind::Ult.infer_width(&[32, 32]), Ok(1));
        assert_eq!(OpKind::Eq.infer_width(&[5, 5]), Ok(1));
    }

    #[test]
    fn width_inference_sel() {
        assert_eq!(OpKind::Sel.infer_width(&[1, 16, 16]), Ok(16));
        assert!(OpKind::Sel.infer_width(&[2, 16, 16]).is_err());
        assert!(OpKind::Sel.infer_width(&[1, 16, 8]).is_err());
    }

    #[test]
    fn width_inference_wiring() {
        assert_eq!(OpKind::Concat.infer_width(&[4, 8, 4]), Ok(16));
        assert!(OpKind::Concat.infer_width(&[]).is_err());
        assert_eq!(OpKind::BitSlice { start: 4, width: 4 }.infer_width(&[8]), Ok(4));
        assert!(OpKind::BitSlice { start: 5, width: 4 }.infer_width(&[8]).is_err());
        assert_eq!(OpKind::ZeroExt { new_width: 16 }.infer_width(&[8]), Ok(16));
        assert!(OpKind::ZeroExt { new_width: 4 }.infer_width(&[8]).is_err());
    }

    #[test]
    fn shifts_take_result_width_from_value_operand() {
        assert_eq!(OpKind::Shll.infer_width(&[32, 5]), Ok(32));
    }

    #[test]
    fn classification() {
        assert!(OpKind::Mul.is_arithmetic());
        assert!(!OpKind::Xor.is_arithmetic());
        assert!(OpKind::Concat.is_free());
        assert!(!OpKind::Add.is_free());
        assert!(OpKind::Xor.is_commutative());
        assert!(!OpKind::Sub.is_commutative());
    }
}
