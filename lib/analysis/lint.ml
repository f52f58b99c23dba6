let check_net net =
  Report.of_findings (Rules.structural net @ Audit.net net)

let check model =
  Report.of_findings
    (Rules.structural model.Asmodel.Qrmodel.net
    @ Rules.policy model
    @ Audit.model model
    @ Audit.intern_integrity model.Asmodel.Qrmodel.net)
