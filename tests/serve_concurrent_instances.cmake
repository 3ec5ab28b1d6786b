# Runs two copies of test_serve's ServeIntegration cases at the same time and
# fails unless both pass.  Each copy trains an artifact, binds AF_UNIX
# sockets and writes snapshots; none of that may collide with a concurrently
# running copy (a second daemon on a live socket must be refused, never
# steal it).
#
# execute_process starts all of its COMMANDs at once, as a pipeline.  Each
# copy's output goes to its own log through sh, so neither writes into the
# pipe (a copy that outlived its reader would die of SIGPIPE).
set(filter "--gtest_filter=ServeIntegration.*")
execute_process(
  COMMAND sh -c "exec \"$0\" '${filter}' > \"$1\" 2>&1"
    ${TEST_SERVE} ${WORK_DIR}/serve_concurrent_a.log
  COMMAND sh -c "exec \"$0\" '${filter}' > \"$1\" 2>&1"
    ${TEST_SERVE} ${WORK_DIR}/serve_concurrent_b.log
  RESULTS_VARIABLE codes)

list(GET codes 0 code_a)
list(GET codes 1 code_b)
if(NOT code_a EQUAL 0 OR NOT code_b EQUAL 0)
  file(READ ${WORK_DIR}/serve_concurrent_a.log log_a)
  file(READ ${WORK_DIR}/serve_concurrent_b.log log_b)
  message(FATAL_ERROR
    "concurrent ServeIntegration runs exited with ${code_a} and ${code_b}\n"
    "---- copy a ----\n${log_a}\n---- copy b ----\n${log_b}")
endif()
